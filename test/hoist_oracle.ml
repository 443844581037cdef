(* The oracle for Eval's loop-invariant evaluation.  Every expression
   that is not a literal, a variable, the root or the context item is
   wrapped in a call of an identity function declared by the query
   itself.  That changes no answer and no node identity, but Eval moves
   nothing that calls a user function (its body may read any variable in
   scope): no for source is shared across a run, no subexpression of
   where, order by or return is evaluated once per FLWOR, and a where
   clause is tested only after every clause has bound its variables.  So
   the rewritten query runs every FLWOR as the plain nested loop. *)

module Ast = Xmark_xquery.Ast

let barrier = "hoist-oracle:id"

(* the oracle of a query given as text *)
let parse src =
  let q =
    Join_oracle.rewrite
      (function
        | (Ast.Number _ | Ast.Literal _ | Ast.Var _ | Ast.Root | Ast.Context) as e -> e
        | e -> Ast.Call (barrier, [ e ]))
      src
  in
  let arg = "hoist-oracle-arg" in
  let identity = { Ast.fname = barrier; params = [ arg ]; body = Ast.Var arg } in
  { q with Ast.functions = identity :: q.Ast.functions }
