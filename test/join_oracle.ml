(* The nested-loop oracle for Eval's equi-join rewrite.  Every FLWOR's
   [where W] becomes [where boolean(W)]: the same query, since a where
   clause keeps its tuples by effective boolean value either way, but
   the hash join only recognises a bare [KEY = PROBE], so the rewritten
   query runs every join as a nested loop on every backend.  It needs no
   compile option, so a join test can compare the hash join with the
   nested loop on any store. *)

module Ast = Xmark_xquery.Ast

(* [f] applied to every expression of [e], children first *)
let rec map f (e : Ast.expr) : Ast.expr =
  let m = map f in
  f
    (match e with
    | Ast.Number _ | Ast.Literal _ | Ast.Var _ | Ast.Root | Ast.Context -> e
    | Ast.Sequence es -> Ast.Sequence (List.map m es)
    | Ast.Path (o, steps) ->
        Ast.Path (m o, List.map (fun s -> { s with Ast.preds = List.map m s.Ast.preds }) steps)
    | Ast.Filter (e', preds) -> Ast.Filter (m e', List.map m preds)
    | Ast.Flwor f ->
        Ast.Flwor
          {
            Ast.clauses =
              List.map
                (function
                  | Ast.For (v, e') -> Ast.For (v, m e') | Ast.Let (v, e') -> Ast.Let (v, m e'))
                f.Ast.clauses;
            where = Option.map m f.Ast.where;
            order = List.map (fun o -> { o with Ast.key = m o.Ast.key }) f.Ast.order;
            ret = m f.Ast.ret;
          }
    | Ast.Quantified (q, binds, sat) ->
        Ast.Quantified (q, List.map (fun (v, e') -> (v, m e')) binds, m sat)
    | Ast.If (a, b, c) -> Ast.If (m a, m b, m c)
    | Ast.Or (a, b) -> Ast.Or (m a, m b)
    | Ast.And (a, b) -> Ast.And (m a, m b)
    | Ast.Compare (op, a, b) -> Ast.Compare (op, m a, m b)
    | Ast.Arith (op, a, b) -> Ast.Arith (op, m a, m b)
    | Ast.Node_before (a, b) -> Ast.Node_before (m a, m b)
    | Ast.Node_after (a, b) -> Ast.Node_after (m a, m b)
    | Ast.Neg a -> Ast.Neg (m a)
    | Ast.Call (fn, args) -> Ast.Call (fn, List.map m args)
    | Ast.Elem_ctor (name, attrs, content) ->
        Ast.Elem_ctor
          ( name,
            List.map
              (fun (a, pieces) ->
                (a, List.map (function Ast.A_expr e' -> Ast.A_expr (m e') | p -> p) pieces))
              attrs,
            List.map (function Ast.C_expr e' -> Ast.C_expr (m e') | c -> c) content ))

(* a query given as text, with [f] applied to every expression *)
let rewrite f src =
  let q = Xmark_xquery.Parser.parse_query src in
  {
    Ast.functions = List.map (fun fn -> { fn with Ast.body = map f fn.Ast.body }) q.Ast.functions;
    main = map f q.Ast.main;
  }

(* the oracle of a query given as text *)
let parse =
  rewrite (function
    | Ast.Flwor f ->
        let boolean w = Ast.Call ("boolean", [ w ]) in
        Ast.Flwor { f with Ast.where = Option.map boolean f.Ast.where }
    | e -> e)
