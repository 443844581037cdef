(* The nested-loop oracle for Eval's equi-join rewrite.  Every FLWOR's
   [where W] becomes [where boolean(W)]: the same query, since a where
   clause keeps its tuples by effective boolean value either way, but
   the hash join only recognises a bare [KEY = PROBE], so the rewritten
   query runs every join as a nested loop on every backend.  It needs no
   compile option, so a join test can compare the hash join with the
   nested loop on any store. *)

module Ast = Xmark_xquery.Ast

let rec expr (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Number _ | Ast.Literal _ | Ast.Var _ | Ast.Root | Ast.Context -> e
  | Ast.Sequence es -> Ast.Sequence (List.map expr es)
  | Ast.Path (o, steps) ->
      Ast.Path (expr o, List.map (fun s -> { s with Ast.preds = List.map expr s.Ast.preds }) steps)
  | Ast.Filter (e', preds) -> Ast.Filter (expr e', List.map expr preds)
  | Ast.Flwor f ->
      Ast.Flwor
        {
          Ast.clauses =
            List.map
              (function
                | Ast.For (v, e') -> Ast.For (v, expr e')
                | Ast.Let (v, e') -> Ast.Let (v, expr e'))
              f.Ast.clauses;
          where = Option.map (fun w -> Ast.Call ("boolean", [ expr w ])) f.Ast.where;
          order = List.map (fun o -> { o with Ast.key = expr o.Ast.key }) f.Ast.order;
          ret = expr f.Ast.ret;
        }
  | Ast.Quantified (q, binds, sat) ->
      Ast.Quantified (q, List.map (fun (v, e') -> (v, expr e')) binds, expr sat)
  | Ast.If (a, b, c) -> Ast.If (expr a, expr b, expr c)
  | Ast.Or (a, b) -> Ast.Or (expr a, expr b)
  | Ast.And (a, b) -> Ast.And (expr a, expr b)
  | Ast.Compare (op, a, b) -> Ast.Compare (op, expr a, expr b)
  | Ast.Arith (op, a, b) -> Ast.Arith (op, expr a, expr b)
  | Ast.Node_before (a, b) -> Ast.Node_before (expr a, expr b)
  | Ast.Node_after (a, b) -> Ast.Node_after (expr a, expr b)
  | Ast.Neg a -> Ast.Neg (expr a)
  | Ast.Call (f, args) -> Ast.Call (f, List.map expr args)
  | Ast.Elem_ctor (name, attrs, content) ->
      Ast.Elem_ctor
        ( name,
          List.map
            (fun (a, pieces) ->
              (a, List.map (function Ast.A_expr e' -> Ast.A_expr (expr e') | p -> p) pieces))
            attrs,
          List.map (function Ast.C_expr e' -> Ast.C_expr (expr e') | c -> c) content )

(* the oracle of a query given as text *)
let parse src =
  let q = Xmark_xquery.Parser.parse_query src in
  {
    Ast.functions = List.map (fun f -> { f with Ast.body = expr f.Ast.body }) q.Ast.functions;
    main = expr q.Ast.main;
  }
