module Dom = Xmark_xml.Dom
module Symbol = Xmark_xml.Symbol
module Stats = Xmark_stats
module Vec = Xmark_relational.Vec_ops

exception Runtime_error of string

module Make (S : Store_sig.S) = struct
  type attr = {
    aowner_order : int;
    aowner : Dom.node option;  (* the constructed element carrying it; None when stored *)
    aname : string;
    avalue : string;
  }

  type item =
    | D  (* the (virtual) document node above the document element *)
    | N of S.node
    | C of Dom.node
    | A of attr
    | Num of float
    | Str of string
    | Bool of bool

  type value = item list

  exception Runtime_error = Runtime_error

  let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

  (* --- compiled queries ------------------------------------------------ *)

  type join_side = { source : Ast.expr; key : Ast.expr }

  type join_table = Unusable | Built of item array * (string, int list) Hashtbl.t

  (* How one FLWOR runs, derived once per compiled query. *)
  type flwor_plan = {
    join : (string * Ast.expr * Ast.expr * Ast.expr) option;
        (* [for $v in SRC where KEY = PROBE]: (v, SRC, KEY, PROBE) *)
    ineq : (string * Ast.expr * Ast.expr * Ast.cmp * Ast.expr) option;
        (* [for $v in SRC where KEY op PROBE return $v], op an inequality:
           (v, SRC, KEY, op, PROBE) with PROBE on the left of op *)
    pre : Ast.expr list;  (* where conjuncts of a FLWOR without clauses *)
    steps : bind_step list;  (* one per clause *)
    invariants : Ast.expr list;
        (* maximal subexpressions of where, order by and return that read
           none of the FLWOR's variables, no focus, construct nothing and
           call no user function: evaluated at most once per evaluation *)
  }

  and bind_step = {
    clause : Ast.clause;
    shared : bool;  (* a for source that reads no variable: once per run *)
    mutable source : value option;  (* its value in the current run *)
    tests : Ast.expr list;  (* where conjuncts whose variables are bound here *)
  }

  type compiled = {
    store : S.t;
    query : Ast.query;
    funcs : (string, string list * Ast.expr) Hashtbl.t;
    flwor_plans : (Ast.flwor * flwor_plan) list;  (* keyed by physical identity *)
    tag_arrays : (Symbol.t, S.node array option) Hashtbl.t;
        (* doc-order extent per tag, when the backend offers one *)
    optimize : bool;
        (* System D's hand plan for theta joins: counted lets are inlined
           and numeric inequality counts answered by binary search *)
    join_tables : (join_side, join_table) Hashtbl.t;
    ineq_tables : (join_side, (float array * float array) option) Hashtbl.t;
        (* per-item (min,max) key values, each sorted ascending; None when
           the keys are not usable numerically *)
    vec : (Vec.adapter * (int -> S.node)) option;
        (* id-algebra view of the store, when the backend offers one *)
    vec_plans : (Ast.step list, Vec.plan * Ast.step list) Hashtbl.t;
        (* per absolute path: physical plan for its longest vectorizable
           prefix plus the scalar suffix steps, compiled once per query;
           missing key = scalar fallback *)
  }

  type ctx = {
    c : compiled;
    vars : (string * value) list;
    citem : item option;  (* context item inside predicates *)
    cpos : int;
    csize : int;
    memo : (Ast.expr * value Lazy.t) list;
        (* invariants of the enclosing FLWOR evaluations, by physical identity *)
  }

  (* --- static analysis ---------------------------------------------------- *)

  (* Direct subexpressions, step predicates included. *)
  let children (e : Ast.expr) =
    match e with
    | Ast.Number _ | Ast.Literal _ | Ast.Var _ | Ast.Root | Ast.Context -> []
    | Ast.Sequence es | Ast.Call (_, es) -> es
    | Ast.Path (o, steps) -> o :: List.concat_map (fun { Ast.preds; _ } -> preds) steps
    | Ast.Filter (o, preds) -> o :: preds
    | Ast.Flwor f ->
        List.map (function Ast.For (_, e') | Ast.Let (_, e') -> e') f.Ast.clauses
        @ Option.to_list f.Ast.where
        @ List.map (fun { Ast.key; _ } -> key) f.Ast.order
        @ [ f.Ast.ret ]
    | Ast.Quantified (_, binds, sat) -> List.map snd binds @ [ sat ]
    | Ast.If (a, b, c) -> [ a; b; c ]
    | Ast.Or (a, b) | Ast.And (a, b) | Ast.Compare (_, a, b) | Ast.Arith (_, a, b)
    | Ast.Node_before (a, b) | Ast.Node_after (a, b) ->
        [ a; b ]
    | Ast.Neg a -> [ a ]
    | Ast.Elem_ctor (_, attrs, content) ->
        List.concat_map
          (fun (_, pieces) ->
            List.filter_map (function Ast.A_expr e' -> Some e' | Ast.A_text _ -> None) pieces)
          attrs
        @ List.filter_map (function Ast.C_expr e' -> Some e' | Ast.C_text _ -> None) content

  let clause_var = function Ast.For (v, _) | Ast.Let (v, _) -> v

  (* Every expression of the query, function bodies included, pre-order. *)
  let iter_query f (q : Ast.query) =
    let rec walk e =
      f e;
      List.iter walk (children e)
    in
    List.iter (fun { Ast.body; _ } -> walk body) q.Ast.functions;
    walk q.Ast.main

  (* Variables an expression references (a conservative dependence test). *)
  let rec expr_vars acc (e : Ast.expr) =
    match e with
    | Ast.Var v -> v :: acc
    | _ -> List.fold_left expr_vars acc (children e)

  let uses_var v e = List.mem v (expr_vars [] e)

  (* Whether an expression reads the focus it is evaluated under: the
     context item, position() or last().  Predicate bodies set a focus of
     their own, so they are not searched. *)
  let rec uses_focus (e : Ast.expr) =
    match e with
    | Ast.Context | Ast.Call (("string" | "name" | "position" | "last"), []) -> true
    | Ast.Path (o, _) | Ast.Filter (o, _) -> uses_focus o
    | _ -> List.exists uses_focus (children e)

  (* A user function's body reads its caller's variables too. *)
  let rec calls_user funcs (e : Ast.expr) =
    match e with
    | Ast.Call (f, _) when Hashtbl.mem funcs f -> true
    | _ -> List.exists (calls_user funcs) (children e)

  let rec constructs (e : Ast.expr) =
    match e with Ast.Elem_ctor _ -> true | _ -> List.exists constructs (children e)

  (* [e] reads none of [vars] and no focus, and one result of it may stand
     in for every evaluation: it makes no fresh nodes *)
  let invariant funcs vars e =
    (not (List.exists (fun v -> List.mem v vars) (expr_vars [] e)))
    && (not (uses_focus e))
    && (not (constructs e))
    && not (calls_user funcs e)

  (* A join side cached across evaluations of its FLWOR: SRC must read
     no variable and KEY none but $v, and neither may read the focus (a
     relative SRC such as [watches/watch] differs per context item). *)
  let cacheable_source funcs src = expr_vars [] src = [] && invariant funcs [] src

  let cacheable_key funcs v key =
    List.for_all (String.equal v) (expr_vars [] key) && invariant funcs [] key

  (* Hash-join shape:  for $v in SRC where KEY($v) = PROBE(outer)  with a
     cacheable SRC and KEY, the probe side not reading $v at all. *)
  let join_pattern funcs f =
    match f.Ast.clauses with
    | [ Ast.For (v, src) ] when cacheable_source funcs src -> (
        match f.Ast.where with
        | Some (Ast.Compare (Ast.Eq, lhs, rhs)) ->
            if uses_var v lhs && cacheable_key funcs v lhs && not (uses_var v rhs) then
              Some (v, src, lhs, rhs)
            else if uses_var v rhs && cacheable_key funcs v rhs && not (uses_var v lhs) then
              Some (v, src, rhs, lhs)
            else None
        | _ -> None)
    | _ -> None

  (* Statically numeric: every item the expression yields is a number, so
     the general comparison is guaranteed to be numeric (untyped-vs-untyped
     would be a string comparison, which the fusion must not change). *)
  let rec always_numeric (e : Ast.expr) =
    match e with
    | Ast.Number _ -> true
    | Ast.Arith _ | Ast.Neg _ -> true
    | Ast.Call (("count" | "sum" | "avg" | "number" | "round" | "floor" | "ceiling" | "abs"
                | "string-length" | "last" | "position"), _) ->
        true
    | Ast.If (_, t, e') -> always_numeric t && always_numeric e'
    | Ast.Sequence es -> es <> [] && List.for_all always_numeric es
    | _ -> false

  (* count(for $v in SRC where A op B return $v) with a numeric inequality
     between a $v-only side and an outer side, as PROBE op KEY *)
  let ineq_pattern funcs f =
    match f.Ast.clauses with
    | [ Ast.For (v, src) ] when cacheable_source funcs src -> (
        match (f.Ast.where, f.Ast.order, f.Ast.ret) with
        | Some (Ast.Compare (op, lhs, rhs)), [], Ast.Var rv
          when String.equal rv v
               && (op = Ast.Gt || op = Ast.Lt || op = Ast.Ge || op = Ast.Le)
               && (always_numeric lhs || always_numeric rhs) ->
            if uses_var v lhs && cacheable_key funcs v lhs && not (uses_var v rhs) then
              (* KEY($v) op PROBE  — flip to PROBE op' KEY *)
              let flip = function
                | Ast.Gt -> Ast.Lt | Ast.Lt -> Ast.Gt | Ast.Ge -> Ast.Le | Ast.Le -> Ast.Ge
                | o -> o
              in
              Some (v, src, lhs, flip op, rhs)
            else if uses_var v rhs && cacheable_key funcs v rhs && not (uses_var v lhs) then
              Some (v, src, rhs, op, lhs)
            else None
        | _ -> None)
    | _ -> None

  (* Loop-invariant code motion for the nested-loop plan.  A for source
     that reads no variable is evaluated once per run.  Each [and]
     conjunct of where is tested right after the last clause binding a
     variable it reads (after all clauses if it calls a user function,
     whose body may read any of them), so a failing test skips the
     clauses after it.  And the maximal invariants of where, order by and
     return are evaluated lazily, at most once per evaluation of the
     FLWOR: on first use, so an empty loop raises nothing new. *)
  let plan_flwor funcs (f : Ast.flwor) =
    let n = List.length f.Ast.clauses in
    let names = List.map clause_var f.Ast.clauses in
    let position w =
      if calls_user funcs w then n
      else
        let last_binder v =
          List.fold_left max 0
            (List.mapi (fun i name -> if String.equal name v then i + 1 else 0) names)
        in
        min n (List.fold_left (fun p v -> max p (last_binder v)) 1 (expr_vars [] w))
    in
    let rec conjuncts = function Ast.And (a, b) -> conjuncts a @ conjuncts b | w -> [ w ] in
    let where = match f.Ast.where with Some w -> conjuncts w | None -> [] in
    let tests_at p = List.filter (fun w -> position w = p) where in
    (* maximal invariant subexpressions; variables bound inside count as
       the FLWOR's own *)
    let rec invariants bound acc (e : Ast.expr) =
      match e with
      | Ast.Number _ | Ast.Literal _ | Ast.Var _ | Ast.Root | Ast.Context -> acc
      | _ when invariant funcs bound e -> e :: acc
      | Ast.Flwor g ->
          List.fold_left (invariants (List.map clause_var g.Ast.clauses @ bound)) acc (children e)
      | Ast.Quantified (_, binds, _) ->
          List.fold_left (invariants (List.map fst binds @ bound)) acc (children e)
      | _ -> List.fold_left (invariants bound) acc (children e)
    in
    {
      join = join_pattern funcs f;
      ineq = ineq_pattern funcs f;
      pre = tests_at 0;
      steps =
        List.mapi
          (fun i clause ->
            let shared =
              match clause with
              | Ast.For (_, src) -> cacheable_source funcs src
              | Ast.Let _ -> false
            in
            { clause; shared; source = None; tests = tests_at (i + 1) })
          f.Ast.clauses;
      invariants =
        List.fold_left (invariants names) []
          (Option.to_list f.Ast.where
          @ List.map (fun { Ast.key; _ } -> key) f.Ast.order
          @ [ f.Ast.ret ]);
    }

  (* Touch the store's metadata for every name in the query: the catalog
     lookups that dominate compilation for fragmenting mappings (Table 2). *)
  let static_check c =
    iter_query
      (function
        | Ast.Path (_, steps) ->
            List.iter
              (fun { Ast.test; _ } ->
                match test with
                | Ast.Name n -> ignore (S.tag_count c.store n)
                | Ast.Star | Ast.Text_test | Ast.Any_kind -> ())
              steps
        | _ -> ())
      c.query

  (* Rewrite (optimize only):  let $v := FLWOR ... count($v)  where every
     use of $v is count($v) becomes a direct count(FLWOR), enabling the
     count-fusion join below (Q11/Q12's shape). *)
  let rec occurrences v (e : Ast.expr) =
    (* (all uses, uses as count($v)) *)
    match e with
    | Ast.Var x -> ((if String.equal x v then 1 else 0), 0)
    | Ast.Call (("count" | "fn:count"), [ Ast.Var x ]) when String.equal x v -> (1, 1)
    | _ ->
        List.fold_left
          (fun (a, b) x ->
            let a', b' = occurrences v x in
            (a + a', b + b'))
          (0, 0) (children e)

  (* [e] with [g] applied to each direct subexpression, in [children]'s
     positions *)
  let map_children g (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Number _ | Ast.Literal _ | Ast.Var _ | Ast.Root | Ast.Context -> e
    | Ast.Sequence es -> Ast.Sequence (List.map g es)
    | Ast.Path (o, steps) ->
        Ast.Path (g o, List.map (fun st -> { st with Ast.preds = List.map g st.Ast.preds }) steps)
    | Ast.Filter (e', preds) -> Ast.Filter (g e', List.map g preds)
    | Ast.Flwor f ->
        Ast.Flwor
          {
            clauses =
              List.map
                (function
                  | Ast.For (x, e') -> Ast.For (x, g e')
                  | Ast.Let (x, e') -> Ast.Let (x, g e'))
                f.Ast.clauses;
            where = Option.map g f.Ast.where;
            order = List.map (fun o -> { o with Ast.key = g o.Ast.key }) f.Ast.order;
            ret = g f.Ast.ret;
          }
    | Ast.Quantified (q, binds, sat) ->
        Ast.Quantified (q, List.map (fun (x, e') -> (x, g e')) binds, g sat)
    | Ast.If (a, b, c) -> Ast.If (g a, g b, g c)
    | Ast.Or (a, b) -> Ast.Or (g a, g b)
    | Ast.And (a, b) -> Ast.And (g a, g b)
    | Ast.Compare (op, a, b) -> Ast.Compare (op, g a, g b)
    | Ast.Arith (op, a, b) -> Ast.Arith (op, g a, g b)
    | Ast.Neg a -> Ast.Neg (g a)
    | Ast.Node_before (a, b) -> Ast.Node_before (g a, g b)
    | Ast.Node_after (a, b) -> Ast.Node_after (g a, g b)
    | Ast.Call (f, args) -> Ast.Call (f, List.map g args)
    | Ast.Elem_ctor (tag, attrs, content) ->
        Ast.Elem_ctor
          ( tag,
            List.map
              (fun (k, pieces) ->
                (k, List.map (function Ast.A_expr e' -> Ast.A_expr (g e') | p -> p) pieces))
              attrs,
            List.map (function Ast.C_expr e' -> Ast.C_expr (g e') | t -> t) content )

  let rec substitute_count v inner (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Call (("count" | "fn:count"), [ Ast.Var x ]) when String.equal x v ->
        Ast.Call ("count", [ inner ])
    | _ -> map_children (substitute_count v inner) e

  let rec inline_counted_lets (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Flwor f ->
        let rec rewrite_clauses = function
          | [] -> ([], Fun.id)
          | (Ast.Let (v, (Ast.Flwor _ as inner)) as clause) :: rest ->
              let rest', wrap_rest = rewrite_clauses rest in
              if List.exists (fun c -> String.equal (clause_var c) v) rest' then
                (clause :: rest', wrap_rest)
              else
                let rest_f =
                  {
                    Ast.clauses = rest';
                    where = f.Ast.where;
                    order = f.Ast.order;
                    ret = f.Ast.ret;
                  }
                in
                let total, counted = occurrences v (Ast.Flwor rest_f) in
                if total > 0 && total = counted then
                  (rest', fun body -> wrap_rest (substitute_count v inner body))
                else (clause :: rest', wrap_rest)
          | clause :: rest ->
              let rest', wrap_rest = rewrite_clauses rest in
              (clause :: rest', wrap_rest)
        in
        let clauses, wrap = rewrite_clauses f.Ast.clauses in
        let f = { f with Ast.clauses } in
        let f =
          match wrap (Ast.Flwor f) with
          | Ast.Flwor f' -> f'
          | _ -> f
        in
        map_children inline_counted_lets (Ast.Flwor f)
    | _ -> map_children inline_counted_lets e

  (* Content every node of which its own evaluation builds: [eval_ctor]
     attaches such roots instead of copying them.  Variables, paths and
     calls may yield nodes that something else still holds. *)
  let rec fresh (e : Ast.expr) =
    match e with
    | Ast.Elem_ctor _ | Ast.Literal _ | Ast.Number _ -> true
    | Ast.Sequence es -> List.for_all fresh es
    | Ast.If (_, t, e') -> fresh t && fresh e'
    | Ast.Flwor f -> fresh f.Ast.ret
    | _ -> false

  (* [xs] with [f] applied to the first member it rewrites *)
  let rec rewrite_first f = function
    | [] -> None
    | x :: rest -> (
        match f x with
        | Some x' -> Some (x' :: rest)
        | None -> Option.map (fun rest' -> x :: rest') (rewrite_first f rest))

  (* [e] with [$v] replaced by [inner] where it is reached through
     constructor content, sequence members and if branches only: no
     binder, step or predicate lies between, so nothing can capture a
     variable of [inner]. *)
  let rec substitute_content v inner (e : Ast.expr) =
    match e with
    | Ast.Var x when String.equal x v -> Some inner
    | Ast.Sequence es ->
        Option.map (fun es -> Ast.Sequence es) (rewrite_first (substitute_content v inner) es)
    | Ast.If (c, t, e') -> (
        match substitute_content v inner t with
        | Some t -> Some (Ast.If (c, t, e'))
        | None -> Option.map (fun e' -> Ast.If (c, t, e')) (substitute_content v inner e'))
    | Ast.Elem_ctor (tag, attrs, content) ->
        Option.map
          (fun content -> Ast.Elem_ctor (tag, attrs, content))
          (rewrite_first
             (function
               | Ast.C_expr e' -> Option.map (fun e' -> Ast.C_expr e') (substitute_content v inner e')
               | Ast.C_text _ -> None)
             content)
    | _ -> None

  (* Rewrite:  ... let $v := E return R  where $v is not in where or
     order by and occurs once in R, in content position, becomes
     ... return R[E/$v].  E is then evaluated where its value is used
     (XQuery 1.0 §2.3.4 leaves evaluation order open), and content built
     by E is fresh there, so it is attached rather than copied. *)
  let rec inline_content_lets (e : Ast.expr) : Ast.expr =
    match map_children inline_content_lets e with
    | Ast.Flwor f -> inline_last_let f
    | e' -> e'

  and inline_last_let f =
    match List.rev f.Ast.clauses with
    | Ast.Let (v, inner) :: earlier
      when (not (List.exists (uses_var v) (Option.to_list f.Ast.where)))
           && (not (List.exists (fun { Ast.key; _ } -> uses_var v key) f.Ast.order))
           && List.length (List.filter (String.equal v) (expr_vars [] f.Ast.ret)) = 1 -> (
        match substitute_content v inner f.Ast.ret with
        | None -> Ast.Flwor f
        | Some ret -> (
            match { f with Ast.clauses = List.rev earlier; ret } with
            | { Ast.clauses = []; where = None; order = []; ret } -> ret
            | f -> inline_last_let f))
    | _ -> Ast.Flwor f

  (* --- vectorized path plans -------------------------------------------- *)

  (* An absolute child/descendant path over name/star tests, with at most
     an attribute-equality predicate per step, maps onto the id algebra of
     {!Xmark_relational.Vec_ops}.  Anything else — positional predicates,
     text tests, nested paths, non-Root origins — stays on the scalar
     interpreter.  Attribute-equality predicates are position-independent,
     so filtering the merged id set is equivalent to the scalar per-node
     predicate application. *)
  let vec_pred store decode preds =
    match preds with
    | [] -> Some []
    | [
     Ast.Compare
       ( Ast.Eq,
         Ast.Path (Ast.Context, [ { Ast.axis = Ast.Attribute; test = Ast.Name a; preds = [] } ]),
         Ast.Literal s );
    ]
    | [
     Ast.Compare
       ( Ast.Eq,
         Ast.Literal s,
         Ast.Path (Ast.Context, [ { Ast.axis = Ast.Attribute; test = Ast.Name a; preds = [] } ]) );
    ] ->
        let attr = Symbol.to_string a in
        (* An id-keyed equality belongs to the scalar engine's id-index
           shortcut (a single lookup); enumerating an extent to filter
           it here is strictly worse.  Decline, so the step and its
           suffix stay scalar, whenever the backend has an id index. *)
        if String.equal attr "id" && S.id_lookup store s <> None then None
        else
          Some
            [
              Vec.Select
                {
                  Vec.sel_label = Printf.sprintf "@%s = %S" attr s;
                  sel_est = 0.1;
                  sel_fn = (fun id -> S.attribute store (decode id) attr = Some s);
                };
            ]
    | _ -> None

  let vec_test = function
    | Ast.Name n -> Some (Vec.Tag (n : Symbol.t :> int))
    | Ast.Star -> Some Vec.Star
    | Ast.Text_test | Ast.Any_kind -> None

  (* Longest vectorizable prefix: logical steps for it, plus the suffix
     that must stay scalar (e.g. a trailing [text()] step). *)
  let vec_translate store decode steps =
    let rec go acc = function
      | [] -> (List.rev acc, [])
      | ({ Ast.axis; test; preds } :: rest) as remaining -> (
          match (axis, vec_test test, vec_pred store decode preds) with
          | (Ast.Child | Ast.Descendant), Some t, Some sel ->
              let step =
                match axis with Ast.Child -> Vec.Child t | _ -> Vec.Descendant t
              in
              go (List.rev_append (step :: sel) acc) rest
          | _ -> (List.rev acc, remaining))
    in
    match go [] steps with
    | [], _ -> None
    | lsteps, suffix -> Some (lsteps, suffix)

  (* Compile a physical plan for every vectorizable absolute path in the
     query (including inside function bodies and predicates), so execution
     is a pure table lookup. *)
  let collect_vec_plans c =
    match c.vec with
    | None -> ()
    | Some (adapter, decode) ->
        let consider steps =
          if not (Hashtbl.mem c.vec_plans steps) then
            match vec_translate c.store decode steps with
            | Some (lsteps, suffix) ->
                Hashtbl.replace c.vec_plans steps (Vec.compile adapter lsteps, suffix)
            | None -> ()
        in
        iter_query
          (function Ast.Path (Ast.Root, steps) -> consider steps | _ -> ())
          c.query

  let compile ?(optimize = false) store query =
    let rewrite e =
      inline_content_lets (if optimize then inline_counted_lets e else e)
    in
    let query =
      {
        Ast.functions =
          List.map (fun f -> { f with Ast.body = rewrite f.Ast.body }) query.Ast.functions;
        main = rewrite query.Ast.main;
      }
    in
    let funcs = Hashtbl.create 8 in
    List.iter
      (fun { Ast.fname; params; body } -> Hashtbl.replace funcs fname (params, body))
      query.Ast.functions;
    let flwor_plans = ref [] in
    iter_query
      (function Ast.Flwor f -> flwor_plans := (f, plan_flwor funcs f) :: !flwor_plans | _ -> ())
      query;
    let c =
      { store; query; funcs; flwor_plans = !flwor_plans; tag_arrays = Hashtbl.create 16;
        optimize;
        join_tables = Hashtbl.create 8; ineq_tables = Hashtbl.create 8;
        (* the adapter build decodes columns and materializes extents;
           skip all of it when vectorized execution is switched off *)
        vec = (if Vec.is_enabled () then S.vec store else None);
        vec_plans = Hashtbl.create 8 }
    in
    static_check c;
    collect_vec_plans c;
    c

  let explain_vec c =
    let render_step { Ast.axis; test; preds } =
      let sep = match axis with Ast.Descendant -> "//" | _ -> "/" in
      let t =
        match test with
        | Ast.Name n -> Symbol.to_string n
        | Ast.Star -> "*"
        | Ast.Text_test -> "text()"
        | Ast.Any_kind -> "node()"
      in
      let p = String.concat "" (List.map (fun _ -> "[...]") preds) in
      sep ^ t ^ p
    in
    Hashtbl.fold
      (fun steps (plan, suffix) acc ->
        let lines =
          Vec.explain ~tag_name:(fun t -> Symbol.to_string (Symbol.of_int t)) plan
          @ List.map (fun s -> "scalar tail: " ^ render_step s) suffix
        in
        (String.concat "" (List.map render_step steps), lines) :: acc)
      c.vec_plans []
    |> List.sort compare

  let tag_array c tag =
    match Hashtbl.find_opt c.tag_arrays tag with
    | Some a ->
        Stats.incr "tag_array_cache_hits";
        a
    | None ->
        Stats.incr "tag_array_cache_misses";
        let a = Option.map Array.of_list (S.tag_nodes c.store tag) in
        Hashtbl.replace c.tag_arrays tag a;
        a

  (* --- item utilities --------------------------------------------------- *)

  let items_of_extent a = Array.fold_right (fun n acc -> N n :: acc) a []

  let is_node = function
    | D | N _ | C _ | A _ -> true
    | Num _ | Str _ | Bool _ -> false

  let node_order c = function
    | D -> -1
    | N n -> S.order c.store n
    | C d -> Dom.order_of d  (* keyed on first ask, not when built *)
    | A a -> a.aowner_order
    | Num _ | Str _ | Bool _ -> err "document order of an atomic value"

  let item_equal a b =
    match (a, b) with
    | D, D -> true
    | N x, N y -> x == y || compare x y = 0
    | C x, C y -> x == y
    | A x, A y ->
        x == y
        || x.aowner_order = y.aowner_order
           && String.equal x.aname y.aname
           && (match (x.aowner, y.aowner) with
              | None, None -> true
              | Some a, Some b -> a == b
              | _ -> false)
    | _ -> false

  (* Document order is kept as step results are built, not restored after
     each step: a child or attribute step over ordered input, and every
     extent slice, already yields its items in order.  So one pass without
     allocation first checks that the keys (stored nodes by [S.order],
     attributes by their owner's order) strictly increase; then no two
     items are equal under [item_equal] and the input is the answer.
     Otherwise stored nodes and their attributes are sorted on extracted
     int keys, an attribute right after its owner and before the owner's
     children, and equal items dropped.  Sequences holding constructed
     nodes or their attributes keep sequence order (cross-tree document
     order is undefined) and drop duplicates by [item_equal]. *)
  let doc_order_dedup c items =
    let store = c.store in
    let rec ordered prev = function
      | [] -> true
      | N n :: rest ->
          let o = S.order store n in
          o > prev && ordered o rest
      | A a :: rest -> a.aowner_order > prev && ordered a.aowner_order rest
      | (D | C _ | Num _ | Str _ | Bool _) :: _ -> false
    in
    if ordered min_int items then items
    else if
      List.for_all (function N _ -> true | A a -> Option.is_none a.aowner | _ -> false) items
    then begin
      let key = function
        | N n -> 2 * S.order store n
        | A a -> (2 * a.aowner_order) + 1
        | D | C _ | Num _ | Str _ | Bool _ -> assert false
      in
      let keyed = Array.of_list (List.map (fun it -> (key it, it)) items) in
      Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) keyed;
      (* equal keys hold one stored node, or the attributes of one owner:
         keep the first of each *)
      let rec seen i j =
        j >= 0
        && fst keyed.(j) = fst keyed.(i)
        && (item_equal (snd keyed.(j)) (snd keyed.(i)) || seen i (j - 1))
      in
      let out = ref [] in
      for i = Array.length keyed - 1 downto 0 do
        if not (seen i (i - 1)) then out := snd keyed.(i) :: !out
      done;
      !out
    end
    else
      let seen = ref [] in
      List.filter
        (fun it ->
          if List.exists (item_equal it) !seen then false
          else begin
            seen := it :: !seen;
            true
          end)
        items

  let string_value_of ctx = function
    | D -> S.string_value ctx.c.store (S.root ctx.c.store)
    | N n -> S.string_value ctx.c.store n
    | C d -> Dom.string_value d
    | A a -> a.avalue
    | Str s -> s
    | Bool b -> if b then "true" else "false"
    | Num f -> Xmark_relational.Value.number_to_string f

  let atomize_item ctx = function
    | (D | N _ | C _ | A _) as n -> Str (string_value_of ctx n)
    | atom -> atom

  let atomize ctx v = List.map (atomize_item ctx) v

  let to_number_opt = function
    | Num f -> Some f
    | Str s -> Xmark_relational.Value.number_of_string s
    | Bool b -> Some (if b then 1.0 else 0.0)
    | D | N _ | C _ | A _ -> None

  (* Effective boolean value. *)
  let ebv = function
    | [] -> false
    | [ Bool b ] -> b
    | [ Num f ] -> f <> 0.0 && not (Float.is_nan f)
    | [ Str s ] -> s <> ""
    | (D | N _ | C _ | A _) :: _ -> true
    | _ :: _ :: _ -> true

  (* --- string helpers: compare in place, never copy a candidate ---------- *)

  (* whether [x] occurs in [s] at byte offset [i]; allocates nothing *)
  let occurs_at s i x =
    let lx = String.length x in
    i >= 0
    && i + lx <= String.length s
    &&
    let k = ref 0 in
    while !k < lx && String.unsafe_get s (i + !k) = String.unsafe_get x !k do
      incr k
    done;
    !k = lx

  (* offset of the first occurrence of [x] in [s], or -1 *)
  let find_substring s x =
    let last = String.length s - String.length x in
    let i = ref 0 in
    while !i <= last && not (occurs_at s !i x) do
      incr i
    done;
    if !i <= last then !i else -1

  (* whether [s] holds [needle] (lowercase) as a token: a maximal
     alphanumeric run, compared lowercase *)
  let contains_token s needle =
    let n = String.length s and ln = String.length needle in
    let is_alnum c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    in
    let rec same i k = k >= ln || (Char.lowercase_ascii s.[i + k] = needle.[k] && same i (k + 1)) in
    let rec scan i =
      if i >= n then false
      else if not (is_alnum s.[i]) then scan (i + 1)
      else begin
        let j = ref i in
        while !j < n && is_alnum s.[!j] do
          incr j
        done;
        (!j - i = ln && same i 0) || scan !j
      end
    in
    ln > 0 && scan 0

  (* XPath's round(): halves go toward positive infinity *)
  let xpath_round x =
    let f = Float.floor x in
    if x -. f >= 0.5 then f +. 1.0 else f

  (* fn:substring: the characters at 1-based positions p with
     round(start) <= p < stop; a NaN bound selects none *)
  let substring s start stop =
    let from = Float.max (xpath_round start) 1.0 in
    let upto = Float.min stop (float_of_int (String.length s + 1)) in
    if from < upto then String.sub s (int_of_float from - 1) (int_of_float (upto -. from))
    else ""

  (* --- navigation over both stored and constructed nodes ---------------- *)

  let child_items ctx = function
    | D -> [ N (S.root ctx.c.store) ]
    | N n -> List.map (fun x -> N x) (S.children ctx.c.store n)
    | C d -> List.map (fun x -> C x) (Dom.children d)
    | A _ | Num _ | Str _ | Bool _ -> err "child step on a non-element item"

  let item_kind ctx = function
    | D -> `Element
    | N n -> S.kind ctx.c.store n
    | C d -> if Dom.is_element d then `Element else `Text
    | A _ | Num _ | Str _ | Bool _ -> err "node kind of an atomic value"

  let item_name ctx = function
    | D -> ""
    | N n -> Symbol.to_string (S.name ctx.c.store n)
    | C d -> Dom.name_string d
    | A a -> a.aname
    | Num _ | Str _ | Bool _ -> err "node name of an atomic value"

  (* Symbol-typed twin of [item_name] for name tests: no string ever
     materializes on the hot path. *)
  let item_name_sym ctx = function
    | D -> Symbol.empty
    | N n -> S.name ctx.c.store n
    | C d -> Dom.name_sym d
    | A a -> Symbol.intern a.aname
    | Num _ | Str _ | Bool _ -> err "node name of an atomic value"

  let matches_test ctx test it =
    match test with
    | Ast.Name tag -> item_kind ctx it = `Element && Symbol.equal (item_name_sym ctx it) tag
    | Ast.Star -> item_kind ctx it = `Element
    | Ast.Text_test -> item_kind ctx it = `Text
    | Ast.Any_kind -> true

  let rec collect_descendants ctx acc it =
    Cancel.poll ();
    let kids = child_items ctx it in
    List.fold_left
      (fun acc k ->
        let acc = k :: acc in
        match item_kind ctx k with
        | `Element -> collect_descendants ctx acc k
        | `Text -> acc)
      acc kids

  (* Fused //tag scan for stores without extent indexes: walk the tree at
     the node level and cons an item only for symbol-equal hits, instead
     of materializing an item per descendant and filtering afterwards.
     On a factor-0.1 document a //item scan visits ~500k nodes for ~20k
     hits, so the unfused version allocates 25x more items. *)
  let collect_descendants_named ctx it tag =
    let store = ctx.c.store in
    let rec go_n acc n =
      Cancel.poll ();
      List.fold_left
        (fun acc k ->
          match S.kind store k with
          | `Element ->
              let acc =
                if Symbol.equal (S.name store k) tag then N k :: acc else acc
              in
              go_n acc k
          | `Text -> acc)
        acc (S.children store n)
    in
    let rec go_c acc d =
      Cancel.poll ();
      List.fold_left
        (fun acc k ->
          if Dom.is_element k then
            let acc = if Symbol.equal (Dom.name_sym k) tag then C k :: acc else acc in
            go_c acc k
          else acc)
        acc (Dom.children d)
    in
    match it with
    | D ->
        let root = S.root store in
        let acc =
          if Symbol.equal (S.name store root) tag then [ N root ] else []
        in
        List.rev (go_n acc root)
    | N n -> List.rev (go_n [] n)
    | C d -> List.rev (go_c [] d)
    | A _ | Num _ | Str _ | Bool _ -> err "child step on a non-element item"

  (* Same fusion for the child axis: test the symbol while walking the
     child list, wrapping only hits into items. *)
  let children_named ctx it tag =
    let store = ctx.c.store in
    match it with
    | D ->
        let r = S.root store in
        if Symbol.equal (S.name store r) tag then [ N r ] else []
    | N n ->
        List.filter_map
          (fun k ->
            match S.kind store k with
            | `Element when Symbol.equal (S.name store k) tag -> Some (N k)
            | `Element | `Text -> None)
          (S.children store n)
    | C d ->
        List.filter_map
          (fun k ->
            if Dom.is_element k && Symbol.equal (Dom.name_sym k) tag then Some (C k)
            else None)
          (Dom.children d)
    | A _ | Num _ | Str _ | Bool _ -> err "child step on a non-element item"

  (* Descendants with a given tag, using extent + interval indexes when the
     backend provides them — the structural-summary fast path. *)
  let descendants_named ctx it tag =
    match it with
    | D -> Option.map items_of_extent (tag_array ctx.c tag)
    | N n -> (
        match (tag_array ctx.c tag, S.subtree_interval ctx.c.store n) with
        | Some extent, Some (lo, hi) ->
            (* binary search the first extent member with order >= lo *)
            let len = Array.length extent in
            let rec lower l r =
              if l >= r then l
              else
                let m = (l + r) / 2 in
                if S.order ctx.c.store extent.(m) >= lo then lower l m else lower (m + 1) r
            in
            let start = lower 0 len in
            let rec take i acc =
              if i >= len then List.rev acc
              else
                let x = extent.(i) in
                let o = S.order ctx.c.store x in
                if o >= hi then List.rev acc
                else take (i + 1) (if o = lo then acc else N x :: acc)
            in
            Some (take start [])
        | _ -> None)
    | C _ | A _ | Num _ | Str _ | Bool _ -> None

  let attribute_items ctx it =
    let attr aowner_order aowner (aname, avalue) = A { aowner_order; aowner; aname; avalue } in
    match it with
    | D -> []
    | N n -> List.map (attr (S.order ctx.c.store n) None) (S.attributes ctx.c.store n)
    | C d ->
        List.map (attr (Dom.order_of d) (Some d))
          (match d.Dom.desc with Dom.Element e -> e.Dom.attrs | Dom.Text _ -> [])
    | A _ | Num _ | Str _ | Bool _ -> err "attribute step on a non-element item"

  let parent_item ctx = function
    | D -> None
    | N n -> (
        match S.parent ctx.c.store n with
        | Some p -> Some (N p)
        | None -> Some D)
    | C d -> Option.map (fun p -> C p) d.Dom.parent
    | A _ | Num _ | Str _ | Bool _ -> err "parent step on a non-element item"

  (* --- conversion to DOM (construction and result materialization) ------ *)

  let rec store_to_dom store n =
    match S.kind store n with
    | `Text -> Dom.text (S.text store n)
    | `Element ->
        Stats.incr "elements_materialized";
        Dom.element_sym
          ~attrs:(S.attributes store n)
          ~children:(List.map (store_to_dom store) (S.children store n))
          (S.name store n)

  let item_to_dom ctx = function
    | D -> store_to_dom ctx.c.store (S.root ctx.c.store)
    | N n -> store_to_dom ctx.c.store n
    | C d ->
        if Stats.enabled () then Stats.incr ~by:(Dom.size d) "constructed_nodes_copied";
        Dom.deep_copy d
    | A a -> Dom.text a.avalue
    | atom -> Dom.text (string_value_of ctx atom)

  (* --- evaluation -------------------------------------------------------- *)

  let lookup_var ctx v =
    match List.assoc_opt v ctx.vars with
    | Some value -> value
    | None -> err "undefined variable $%s" v

  (* Detect the [@id = "literal"] predicate shape the ID index serves. *)
  let sym_id = Symbol.intern "id"

  let id_predicate_literal preds =
    match preds with
    | Ast.Compare
        ( Ast.Eq,
          Ast.Path (Ast.Context, [ { Ast.axis = Ast.Attribute; test = Ast.Name a; preds = [] } ]),
          Ast.Literal s )
      :: rest
      when Symbol.equal a sym_id ->
        Some (s, rest)
    | Ast.Compare
        ( Ast.Eq,
          Ast.Literal s,
          Ast.Path (Ast.Context, [ { Ast.axis = Ast.Attribute; test = Ast.Name a; preds = [] } ]) )
      :: rest
      when Symbol.equal a sym_id ->
        Some (s, rest)
    | _ -> None

  let plan_of c f =
    match List.assq_opt f c.flwor_plans with Some p -> p | None -> plan_flwor c.funcs f

  let rec eval ctx (e : Ast.expr) : value =
    match e with
    | _ when ctx.memo != [] && List.mem_assq e ctx.memo -> Lazy.force (List.assq e ctx.memo)
    | Ast.Number f -> [ Num f ]
    | Ast.Literal s -> [ Str s ]
    | Ast.Var v -> lookup_var ctx v
    | Ast.Sequence es -> List.concat_map (eval ctx) es
    | Ast.Root -> [ D ]
    | Ast.Context -> (
        match ctx.citem with
        | Some it -> [ it ]
        | None -> err "no context item")
    | Ast.Path (Ast.Root, steps)
      when ctx.c.vec <> None && Vec.is_enabled () && Hashtbl.mem ctx.c.vec_plans steps ->
        let adapter, decode = Option.get ctx.c.vec in
        let plan, suffix = Hashtbl.find ctx.c.vec_plans steps in
        Stats.incr ~by:(List.length steps - List.length suffix) "path_steps";
        let ids = Vec.execute adapter ~poll:Cancel.poll plan in
        (* ids are sorted ascending = document order for these backends,
           so this is already the doc_order_dedup form *)
        let start = Array.fold_right (fun id acc -> N (decode id) :: acc) ids [] in
        List.fold_left (eval_step ctx) start suffix
    | Ast.Path (origin, steps) ->
        (match origin with
        | Ast.Root when ctx.c.vec <> None && Vec.is_enabled () -> Stats.incr "vec_fallbacks"
        | _ -> ());
        let start = eval ctx origin in
        List.fold_left (eval_step ctx) start steps
    | Ast.Filter (e, preds) ->
        let v = eval ctx e in
        List.fold_left (filter_sequence ctx) v preds
    | Ast.Flwor f -> eval_flwor ctx f
    | Ast.Quantified (q, binds, sat) -> [ Bool (eval_quantified ctx q binds sat) ]
    | Ast.If (c, t, e) -> if ebv (eval ctx c) then eval ctx t else eval ctx e
    | Ast.Or (a, b) -> [ Bool (ebv (eval ctx a) || ebv (eval ctx b)) ]
    | Ast.And (a, b) -> [ Bool (ebv (eval ctx a) && ebv (eval ctx b)) ]
    | Ast.Compare (op, a, b) -> [ Bool (general_compare ctx op (eval ctx a) (eval ctx b)) ]
    | Ast.Arith (op, a, b) -> eval_arith ctx op a b
    | Ast.Neg a -> (
        match atomize ctx (eval ctx a) with
        | [] -> []
        | it :: _ -> [ Num (-.Option.value ~default:Float.nan (to_number_opt it)) ])
    | Ast.Call (f, args) -> eval_call ctx f args
    | Ast.Elem_ctor (tag, attrs, content) -> [ eval_ctor ctx tag attrs content ]
    | Ast.Node_before (a, b) -> [ Bool (node_order_compare ctx a b ( < )) ]
    | Ast.Node_after (a, b) -> [ Bool (node_order_compare ctx a b ( > )) ]

  and node_order_compare ctx a b rel =
    match (eval ctx a, eval ctx b) with
    | [ x ], [ y ] when is_node x && is_node y -> rel (node_order ctx.c x) (node_order ctx.c y)
    | [], _ | _, [] -> false
    | _ -> err "node comparison requires single nodes"

  (* One path step applied to a whole node sequence.  The dispatch is
     shaped to cost nothing on the scalar path: no tuples, no options,
     no record rebuilds per step. *)
  and eval_step ctx input ({ Ast.axis; _ } as step) =
    Stats.incr "path_steps";
    match axis with
    | Ast.Descendant -> (
        match ctx.c.vec with
        | Some va when Vec.is_enabled () && input <> [] -> (
            match vec_descendant_step ctx va input step.Ast.test step.Ast.preds with
            | Some result -> result
            | None -> eval_step_scalar ctx input step)
        | _ -> eval_step_scalar ctx input step)
    | _ -> eval_step_scalar ctx input step

  (* Step-level vectorization: a descendant step over a sequence of
     stored nodes becomes an interval join (or closure walk) on the id
     algebra — the case the scalar evaluator can only serve with a
     per-node tree walk when the backend lacks [subtree_interval].
     Covers the [$x//tag] steps of Q6/Q7 whose origin is a variable,
     which the whole-path planner cannot see. *)
  and vec_descendant_step ctx (adapter, decode) input test preds =
    match (vec_test test, vec_pred ctx.c.store decode preds) with
    | Some t, Some sel ->
        if List.for_all (function N _ -> true | _ -> false) input then begin
          let b = Xmark_relational.Batch.create ~capacity:(List.length input) () in
          List.iter
            (function N n -> Xmark_relational.Batch.push b (S.order ctx.c.store n) | _ -> ())
            input;
          let ids = Xmark_relational.Batch.sorted_unique b in
          let plan =
            Vec.compile_from adapter
              ~est_in:(float_of_int (Array.length ids))
              (Vec.Descendant t :: sel)
          in
          let out = Vec.execute_from adapter ~poll:Cancel.poll plan ids in
          Some (Array.fold_right (fun id acc -> N (decode id) :: acc) out [])
        end
        else None
    | _ -> None

  and eval_step_scalar ctx input { Ast.axis; test; preds } =
    let per_node it =
      Cancel.poll ();
      match axis with
      | Ast.Child -> (
          (* ID-index shortcut for  tag[@id = "..."]  child steps. *)
          match (test, id_predicate_literal preds) with
          | Ast.Name tag, Some (idval, rest_preds) -> (
              match S.id_lookup ctx.c.store idval with
              | Some candidate -> (
                  match candidate with
                  | Some n
                    when Symbol.equal (S.name ctx.c.store n) tag
                         && (match S.parent ctx.c.store n with
                            | Some p -> item_equal (N p) it
                            | None -> false) ->
                      apply_predicates ctx [ N n ] rest_preds
                  | Some _ | None -> [])
              | None ->
                  apply_predicates ctx (children_named ctx it tag) preds)
          | Ast.Name tag, None ->
              apply_predicates ctx (children_named ctx it tag) preds
          | (Ast.Star | Ast.Text_test | Ast.Any_kind), _ ->
              let selected = List.filter (matches_test ctx test) (child_items ctx it) in
              apply_predicates ctx selected preds)
      | Ast.Descendant ->
          let selected =
            match test with
            | Ast.Name tag -> (
                match descendants_named ctx it tag with
                | Some nodes -> nodes
                | None -> collect_descendants_named ctx it tag)
            | _ -> List.filter (matches_test ctx test) (List.rev (collect_descendants ctx [] it))
          in
          apply_predicates ctx selected preds
      | Ast.Attribute ->
          let selected =
            match (test, it) with
            | Ast.Name a, N n -> (
                (* one lookup instead of a record per attribute *)
                let a = Symbol.to_string a in
                match S.attribute ctx.c.store n a with
                | Some v ->
                    let aowner_order = S.order ctx.c.store n in
                    [ A { aowner_order; aowner = None; aname = a; avalue = v } ]
                | None -> [])
            | Ast.Name a, _ ->
                let a = Symbol.to_string a in
                List.filter (fun x -> String.equal (item_name ctx x) a) (attribute_items ctx it)
            | Ast.Star, _ -> attribute_items ctx it
            | (Ast.Text_test | Ast.Any_kind), _ -> []
          in
          apply_predicates ctx selected preds
      | Ast.Parent ->
          let selected =
            match parent_item ctx it with
            | Some p when matches_test ctx test p -> [ p ]
            | Some _ | None -> []
          in
          apply_predicates ctx selected preds
      | Ast.Self ->
          let selected = if matches_test ctx test it then [ it ] else [] in
          apply_predicates ctx selected preds
    in
    doc_order_dedup ctx.c (List.concat_map per_node input)

  (* Predicates relative to the node list selected for one context node. *)
  and apply_predicates ctx selected preds = List.fold_left (filter_sequence ctx) selected preds

  and filter_sequence ctx selected pred =
    let size = List.length selected in
    let keep i it =
      Cancel.poll ();
      let ctx' = { ctx with citem = Some it; cpos = i + 1; csize = size } in
      match eval ctx' pred with
      | [ Num f ] -> f = float_of_int (i + 1)
      | v -> ebv v
    in
    List.filteri keep selected

  and general_compare ctx op left right =
    let left = atomize ctx left and right = atomize ctx right in
    let cmp_pair a b =
      let numeric =
        match (a, b) with
        | Num _, _ | _, Num _ | Bool _, _ | _, Bool _ -> true
        | _ -> false
      in
      if numeric then
        let x = Option.value ~default:Float.nan (to_number_opt a) in
        let y = Option.value ~default:Float.nan (to_number_opt b) in
        if Float.is_nan x || Float.is_nan y then false
        else
          match op with
          | Ast.Eq -> x = y
          | Ast.Ne -> x <> y
          | Ast.Lt -> x < y
          | Ast.Le -> x <= y
          | Ast.Gt -> x > y
          | Ast.Ge -> x >= y
      else
        let x = string_value_of ctx a and y = string_value_of ctx b in
        let c = String.compare x y in
        match op with
        | Ast.Eq -> c = 0
        | Ast.Ne -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | Ast.Ge -> c >= 0
    in
    List.exists (fun a -> List.exists (fun b -> cmp_pair a b) right) left

  and eval_arith ctx op a b =
    let va = atomize ctx (eval ctx a) and vb = atomize ctx (eval ctx b) in
    match (va, vb) with
    | [], _ | _, [] -> []
    | x :: _, y :: _ ->
        let x = Option.value ~default:Float.nan (to_number_opt x) in
        let y = Option.value ~default:Float.nan (to_number_opt y) in
        let r =
          match op with
          | Ast.Add -> x +. y
          | Ast.Sub -> x -. y
          | Ast.Mul -> x *. y
          | Ast.Div -> x /. y
          | Ast.Mod -> Float.rem x y
        in
        [ Num r ]

  (* Hash-join rewrite:  for $v in SRC where KEY($v) = PROBE(outer) ...
     with a cacheable SRC and KEY becomes a build-once / probe-per-tuple hash
     join on every backend — in the paper every system ran the id-chasing
     equi-joins Q8/Q9 with a join algorithm.  Valid only when every key
     atomizes to an untyped string (general '=' on two untyped values is
     string equality); anything else falls back to the nested loop. *)
  and build_join_table ctx v src key =
    let side = { source = src; key } in
    match Hashtbl.find_opt ctx.c.join_tables side with
    | Some t -> t
    | None ->
        Stats.incr "join_tables_built";
        let items = Array.of_list (eval { ctx with vars = [] } src) in
        let table = Hashtbl.create (2 * (Array.length items + 1)) in
        let usable = ref true in
        Array.iteri
          (fun i it ->
            let keys = atomize ctx (eval { ctx with vars = [ (v, [ it ]) ] } key) in
            List.iter
              (fun k ->
                match k with
                | Str ks -> (
                    match Hashtbl.find_opt table ks with
                    | Some (j :: _) when j = i -> ()  (* a key the item repeats *)
                    | bucket -> Hashtbl.replace table ks (i :: Option.value ~default:[] bucket))
                | D | N _ | C _ | A _ | Num _ | Bool _ -> usable := false)
              keys)
          items;
        (* buckets ascending, so a one-key probe takes its bucket as it is *)
        Hashtbl.filter_map_inplace (fun _ bucket -> Some (List.rev bucket)) table;
        let t = if !usable then Built (items, table) else Unusable in
        Hashtbl.replace ctx.c.join_tables side t;
        t

  (* Tuple stream for an optimizable FLWOR; None = fall back to the
     nested-loop pipeline. *)
  and try_hash_join ctx plan =
    match plan.join with
    | None -> None
    | Some (v, src, key, probe) -> (
        match build_join_table ctx v src key with
        | Unusable -> None
        | Built (items, table) ->
            let probe_keys = atomize ctx (eval ctx probe) in
            if
              List.exists
                (function Str _ -> false | D | N _ | C _ | A _ | Num _ | Bool _ -> true)
                probe_keys
            then None
            else begin
              (* counted only for probes the table answers *)
              if Stats.enabled () then
                Stats.incr ~by:(List.length probe_keys) "join_probes";
              let bucket ks = Option.value ~default:[] (Hashtbl.find_opt table ks) in
              let indices =
                match probe_keys with
                | [ Str ks ] -> bucket ks
                | _ ->
                    let matched = Hashtbl.create 16 in
                    List.iter
                      (function
                        | Str ks -> List.iter (fun i -> Hashtbl.replace matched i ()) (bucket ks)
                        | D | N _ | C _ | A _ | Num _ | Bool _ -> ())
                      probe_keys;
                    List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) matched [])
              in
              Some
                (List.map
                   (fun i -> { ctx with vars = (v, [ items.(i) ]) :: ctx.vars })
                   indices)
            end)

  (* count(for $v in SRC where A op B return $v) with a numeric inequality
     between a $v-only side and an outer side: answered with binary search
     over pre-sorted key arrays instead of a nested loop — the plan shape
     behind the paper's System D numbers for Q11/Q12. *)
  and build_ineq_table ctx v src key =
    let side = { source = src; key } in
    match Hashtbl.find_opt ctx.c.ineq_tables side with
    | Some t -> t
    | None ->
        Stats.incr "join_tables_built";
        let items = eval { ctx with vars = [] } src in
        let minmax =
          List.filter_map
            (fun it ->
              let keys =
                atomize ctx (eval { ctx with vars = [ (v, [ it ]) ] } key)
                |> List.filter_map to_number_opt
                |> List.filter (fun f -> not (Float.is_nan f))
              in
              match keys with
              | [] -> None
              | k :: rest ->
                  Some
                    (List.fold_left Float.min k rest, List.fold_left Float.max k rest))
            items
        in
        let mins = Array.of_list (List.map fst minmax) in
        let maxs = Array.of_list (List.map snd minmax) in
        Array.sort Float.compare mins;
        Array.sort Float.compare maxs;
        let t = Some (mins, maxs) in
        Hashtbl.replace ctx.c.ineq_tables side t;
        t

  (* number of elements of a sorted array strictly less than x *)
  and count_lt sorted x =
    let n = Array.length sorted in
    let rec lower l r = if l >= r then l else
      let m = (l + r) / 2 in
      if sorted.(m) < x then lower (m + 1) r else lower l m
    in
    lower 0 n

  and count_le sorted x =
    let n = Array.length sorted in
    let rec lower l r = if l >= r then l else
      let m = (l + r) / 2 in
      if sorted.(m) <= x then lower (m + 1) r else lower l m
    in
    lower 0 n

  and try_inequality_count ctx e =
    match e with
    | Ast.Flwor f -> (
        match (plan_of ctx.c f).ineq with
        | None -> None
        | Some (v, src, key, op, probe) -> (
            match build_ineq_table ctx v src key with
            | None -> None
            | Some (mins, maxs) ->
                let probe_vals =
                  atomize ctx (eval ctx probe)
                  |> List.filter_map to_number_opt
                  |> List.filter (fun f -> not (Float.is_nan f))
                in
                if Stats.enabled () then
                  Stats.incr ~by:(List.length probe_vals) "join_probes";
                if probe_vals = [] then Some 0
                else
                  (* existential semantics: an item passes PROBE op KEY if
                     some probe value does; the extreme probe value decides *)
                  let pmax = List.fold_left Float.max (List.hd probe_vals) probe_vals in
                  let pmin = List.fold_left Float.min (List.hd probe_vals) probe_vals in
                  (* an item with several keys passes via its own extreme *)
                  Some
                    (match op with
                    | Ast.Gt -> count_lt mins pmax  (* p > some key: key_min < p *)
                    | Ast.Ge -> count_le mins pmax
                    | Ast.Lt -> Array.length maxs - count_le maxs pmin
                    | Ast.Le -> Array.length maxs - count_lt maxs pmin
                    | Ast.Eq | Ast.Ne -> assert false)))
    | _ -> None

  and eval_flwor ctx f =
    let plan = plan_of ctx.c f in
    let tuples =
      match try_hash_join ctx plan with
      | Some tuples -> tuples
      | None ->
          let ctx =
            List.fold_left
              (fun ctx' e ->
                if List.mem_assq e ctx'.memo then ctx'
                else { ctx' with memo = (e, lazy (eval ctx e)) :: ctx'.memo })
              ctx plan.invariants
          in
          let bind ctxs st =
            let ctxs =
              match st.clause with
              | Ast.For (v, e) ->
                  List.concat_map
                    (fun ctx' ->
                      Cancel.poll ();
                      List.map
                        (fun it -> { ctx' with vars = (v, [ it ]) :: ctx'.vars })
                        (for_source ctx' st e))
                    ctxs
              | Ast.Let (v, e) ->
                  List.map (fun ctx' -> { ctx' with vars = (v, eval ctx' e) :: ctx'.vars }) ctxs
            in
            passes st.tests ctxs
          in
          List.fold_left bind (passes plan.pre [ ctx ]) plan.steps
    in
    let tuples =
      if f.Ast.order = [] then tuples
      else begin
        let keyed =
          List.map
            (fun ctx' ->
              let keys =
                List.map
                  (fun { Ast.key; descending } ->
                    let v = atomize ctx' (eval ctx' key) in
                    (v, descending))
                  f.Ast.order
              in
              (keys, ctx'))
            tuples
        in
        let compare_key (a, desc) (b, _) =
          let c =
            match (a, b) with
            | [], [] -> 0
            | [], _ -> -1  (* empty least *)
            | _, [] -> 1
            | x :: _, y :: _ -> (
                match (x, y) with
                | Num f1, Num f2 -> compare f1 f2
                | _ ->
                    (* untyped data compares as strings *)
                    String.compare (string_value_of ctx x) (string_value_of ctx y))
          in
          if desc then -c else c
        in
        let rec compare_keys ka kb =
          match (ka, kb) with
          | [], [] -> 0
          | a :: ra, b :: rb ->
              let c = compare_key a b in
              if c <> 0 then c else compare_keys ra rb
          | _ -> 0
        in
        List.stable_sort (fun (ka, _) (kb, _) -> compare_keys ka kb) keyed |> List.map snd
      end
    in
    if Stats.enabled () then Stats.incr ~by:(List.length tuples) "tuples_emitted";
    List.concat_map (fun ctx' -> eval ctx' f.Ast.ret) tuples

  and for_source ctx st e =
    if not st.shared then eval ctx e
    else
      match st.source with
      | Some v -> v
      | None ->
          let v = eval ctx e in
          st.source <- Some v;
          v

  (* the tuples on which every test holds *)
  and passes tests ctxs =
    match tests with
    | [] -> ctxs
    | _ -> List.filter (fun ctx' -> List.for_all (fun w -> ebv (eval ctx' w)) tests) ctxs

  and eval_quantified ctx q binds sat =
    let rec go ctx' = function
      | [] -> ebv (eval ctx' sat)
      | (v, e) :: rest ->
          let items = eval ctx' e in
          let test it = go { ctx' with vars = (v, [ it ]) :: ctx'.vars } rest in
          (match q with
          | Ast.Some_ -> List.exists test items
          | Ast.Every -> List.for_all test items)
    in
    go ctx binds

  (* --- element construction --------------------------------------------- *)

  and eval_ctor ctx tag attr_specs content =
    let attr_value pieces =
      String.concat ""
        (List.map
           (function
             | Ast.A_text s -> s
             | Ast.A_expr e ->
                 let v = atomize ctx (eval ctx e) in
                 String.concat " " (List.map (string_value_of ctx) v))
           pieces)
    in
    let attrs = ref (List.map (fun (k, pieces) -> (k, attr_value pieces)) attr_specs) in
    let children = ref [] in
    let add_text s = children := Dom.text s :: !children in
    let add_items ~fresh v =
      (* Adjacent atomics merge into one text node, space separated. *)
      let flush_atoms atoms =
        if atoms <> [] then
          add_text (String.concat " " (List.rev_map (string_value_of ctx) atoms))
      in
      let rec go atoms = function
        | [] -> flush_atoms atoms
        | (Num _ | Str _ | Bool _) as a :: rest -> go (a :: atoms) rest
        | A a :: rest when !children = [] && atoms = [] ->
            (* attribute nodes ahead of any content attach as attributes *)
            attrs := !attrs @ [ (a.aname, a.avalue) ];
            go [] rest
        | C d :: rest when fresh && Option.is_none d.Dom.parent && d.Dom.order < 0 ->
            (* built by this content and held by nothing else: adopt it
               (a keyed root is copied, since keyed trees never grow) *)
            flush_atoms atoms;
            children := d :: !children;
            go [] rest
        | (D | N _ | C _ | A _) as n :: rest ->
            flush_atoms atoms;
            children := item_to_dom ctx n :: !children;
            go [] rest
      in
      go [] v
    in
    List.iter
      (function
        | Ast.C_text s -> add_text s
        | Ast.C_expr e -> add_items ~fresh:(fresh e) (eval ctx e))
      content;
    C (Dom.element_sym ~attrs:!attrs ~children:(List.rev !children) tag)

  (* --- function calls ---------------------------------------------------- *)

  and eval_call ctx f args =
    Stats.incr "function_calls";
    match (f, args) with
    | ("count" | "fn:count"), [ e ] -> (
        match (if ctx.c.optimize then try_inequality_count ctx e else None) with
        | Some n -> [ Num (float_of_int n) ]
        | None -> [ Num (float_of_int (List.length (eval ctx e))) ])
    | "empty", [ e ] -> [ Bool (eval ctx e = []) ]
    | "exists", [ e ] -> [ Bool (eval ctx e <> []) ]
    | "not", [ e ] -> [ Bool (not (ebv (eval ctx e))) ]
    | "boolean", [ e ] -> [ Bool (ebv (eval ctx e)) ]
    | "true", [] -> [ Bool true ]
    | "false", [] -> [ Bool false ]
    | "string", [] -> (
        match ctx.citem with
        | Some it -> [ Str (string_value_of ctx it) ]
        | None -> err "string() with no context item")
    | "string", [ e ] -> (
        match eval ctx e with
        | [] -> [ Str "" ]
        | it :: _ -> [ Str (string_value_of ctx it) ])
    | "data", [ e ] -> atomize ctx (eval ctx e)
    | "number", [ e ] -> (
        match atomize ctx (eval ctx e) with
        | [] -> [ Num Float.nan ]
        | it :: _ -> [ Num (Option.value ~default:Float.nan (to_number_opt it)) ])
    | "contains", [ a; b ] ->
        let s = string_arg ctx a and sub = string_arg ctx b in
        [ Bool (find_substring s sub >= 0) ]
    | "starts-with", [ a; b ] ->
        let s = string_arg ctx a and prefix = string_arg ctx b in
        [ Bool (occurs_at s 0 prefix) ]
    | "ends-with", [ a; b ] ->
        let s = string_arg ctx a and suffix = string_arg ctx b in
        [ Bool (occurs_at s (String.length s - String.length suffix) suffix) ]
    | "string-length", [ e ] -> [ Num (float_of_int (String.length (string_arg ctx e))) ]
    | "substring", [ e; start ] ->
        let s = string_arg ctx e in
        [ Str (substring s (number_arg ctx start) Float.infinity) ]
    | "substring", [ e; start; len ] ->
        let s = string_arg ctx e and start = number_arg ctx start in
        [ Str (substring s start (xpath_round start +. xpath_round (number_arg ctx len))) ]
    | "concat", args -> [ Str (String.concat "" (List.map (string_arg ctx) args)) ]
    | "string-join", [ e; sep ] ->
        let sep = string_arg ctx sep in
        let parts = List.map (string_value_of ctx) (atomize ctx (eval ctx e)) in
        [ Str (String.concat sep parts) ]
    | "substring-before", [ a; b ] ->
        let s = string_arg ctx a and sep = string_arg ctx b in
        let i = find_substring s sep in
        [ Str (if i < 0 then "" else String.sub s 0 i) ]
    | "substring-after", [ a; b ] ->
        (* an empty separator occurs at 0: the whole string *)
        let s = string_arg ctx a and sep = string_arg ctx b in
        let i = find_substring s sep in
        let from = i + String.length sep in
        [ Str (if i < 0 then "" else String.sub s from (String.length s - from)) ]
    | "reverse", [ e ] -> List.rev (eval ctx e)
    | "subsequence", [ e; start ] ->
        let v = eval ctx e in
        let from = int_of_float (Float.round (number_arg ctx start)) in
        List.filteri (fun i _ -> i + 1 >= from) v
    | "subsequence", [ e; start; len ] ->
        let v = eval ctx e in
        let from = int_of_float (Float.round (number_arg ctx start)) in
        let len = int_of_float (Float.round (number_arg ctx len)) in
        List.filteri (fun i _ -> i + 1 >= from && i + 1 < from + len) v
    | "normalize-space", [ e ] ->
        let s = string_arg ctx e in
        let parts = String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s) in
        [ Str (String.concat " " (List.filter (( <> ) "") parts)) ]
    | "upper-case", [ e ] -> [ Str (String.uppercase_ascii (string_arg ctx e)) ]
    | "lower-case", [ e ] -> [ Str (String.lowercase_ascii (string_arg ctx e)) ]
    | "translate", [ e; from_; to_ ] ->
        let s = string_arg ctx e and f = string_arg ctx from_ and t = string_arg ctx to_ in
        let buf = Buffer.create (String.length s) in
        String.iter
          (fun ch ->
            match String.index_opt f ch with
            | None -> Buffer.add_char buf ch
            | Some i -> if i < String.length t then Buffer.add_char buf t.[i])
          s;
        [ Str (Buffer.contents buf) ]
    | "sum", [ e ] ->
        let nums = List.map (fun it -> Option.value ~default:0.0 (to_number_opt it)) (atomize ctx (eval ctx e)) in
        [ Num (List.fold_left ( +. ) 0.0 nums) ]
    | "avg", [ e ] -> (
        match atomize ctx (eval ctx e) with
        | [] -> []
        | v ->
            let nums = List.map (fun it -> Option.value ~default:Float.nan (to_number_opt it)) v in
            [ Num (List.fold_left ( +. ) 0.0 nums /. float_of_int (List.length nums)) ])
    | "min", [ e ] -> fold_minmax ctx e `Min
    | "max", [ e ] -> fold_minmax ctx e `Max
    | "round", [ e ] -> [ Num (xpath_round (number_arg ctx e)) ]
    | "floor", [ e ] -> [ Num (Float.floor (number_arg ctx e)) ]
    | "ceiling", [ e ] -> [ Num (Float.ceil (number_arg ctx e)) ]
    | "abs", [ e ] -> [ Num (Float.abs (number_arg ctx e)) ]
    | "zero-or-one", [ e ] -> (
        match eval ctx e with
        | [] -> []
        | [ it ] -> [ it ]
        | _ -> err "zero-or-one: more than one item")
    | "exactly-one", [ e ] -> (
        match eval ctx e with
        | [ it ] -> [ it ]
        | v -> err "exactly-one: %d items" (List.length v))
    | "one-or-more", [ e ] -> (
        match eval ctx e with
        | [] -> err "one-or-more: empty sequence"
        | v -> v)
    | "distinct-values", [ e ] ->
        let v = atomize ctx (eval ctx e) in
        let seen = Hashtbl.create 16 in
        List.filter
          (fun it ->
            let k = string_value_of ctx it in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          v
    | "ft-search", [ tag_e; word_e ] -> (
        (* Full-text keyword lookup: elements with the given tag whose
           string value contains the word as a token.  Served by the
           backend's inverted index when it has one (System D), by an
           extent or tree scan otherwise — the isolation study of the
           paper's Section 6.9. *)
        let tag = Symbol.intern (string_arg ctx tag_e) and word = string_arg ctx word_e in
        match S.keyword_search ctx.c.store ~tag ~word with
        | Some nodes -> List.map (fun n -> N n) nodes
        | None ->
            let extent =
              match tag_array ctx.c tag with
              | Some a -> items_of_extent a
              | None -> collect_descendants_named ctx D tag
            in
            let needle = String.lowercase_ascii word in
            List.filter (fun it -> contains_token (string_value_of ctx it) needle) extent)
    | "position", [] -> [ Num (float_of_int ctx.cpos) ]
    | "last", [] -> [ Num (float_of_int ctx.csize) ]
    | "name", [ e ] -> (
        match eval ctx e with
        | [] -> [ Str "" ]
        | it :: _ -> [ Str (item_name ctx it) ])
    | "name", [] -> (
        match ctx.citem with
        | Some it -> [ Str (item_name ctx it) ]
        | None -> err "name() with no context item")
    | "id", [ e ] -> (
        let idval = string_arg ctx e in
        match S.id_lookup ctx.c.store idval with
        | Some (Some n) -> [ N n ]
        | Some None -> []
        | None ->
            (* no index: scan *)
            let rec scan acc it =
              let acc =
                if
                  item_kind ctx it = `Element
                  && (match it with
                     | N n -> S.attribute ctx.c.store n "id" = Some idval
                     | _ -> false)
                then it :: acc
                else acc
              in
              List.fold_left scan acc
                (List.filter (fun k -> item_kind ctx k = `Element) (child_items ctx it))
            in
            List.rev (scan [] (N (S.root ctx.c.store))))
    | _ -> (
        match Hashtbl.find_opt ctx.c.funcs f with
        | Some (params, body) ->
            if List.length params <> List.length args then
              err "function %s expects %d arguments" f (List.length params);
            let bindings = List.map2 (fun p a -> (p, eval ctx a)) params args in
            eval { ctx with vars = bindings @ ctx.vars; memo = [] } body
        | None -> err "unknown function %s/%d" f (List.length args))

  and string_arg ctx e =
    match atomize ctx (eval ctx e) with
    | [] -> ""
    | it :: _ -> string_value_of ctx it

  and number_arg ctx e =
    match atomize ctx (eval ctx e) with
    | [] -> Float.nan
    | it :: _ -> Option.value ~default:Float.nan (to_number_opt it)

  and fold_minmax ctx e which =
    match atomize ctx (eval ctx e) with
    | [] -> []
    | v -> (
        let nums = List.filter_map to_number_opt v in
        match (nums, which) with
        | _ when List.length nums = List.length v ->
            let pick : float -> float -> float =
              match which with `Min -> Float.min | `Max -> Float.max
            in
            [ Num (List.fold_left pick (List.hd nums) (List.tl nums)) ]
        | _ ->
            let strs = List.map (string_value_of ctx) v in
            let pick a b =
              match which with
              | `Min -> if String.compare a b <= 0 then a else b
              | `Max -> if String.compare a b >= 0 then a else b
            in
            [ Str (List.fold_left pick (List.hd strs) (List.tl strs)) ])

  (* --- entry points ------------------------------------------------------ *)

  let run c =
    List.iter (fun (_, p) -> List.iter (fun st -> st.source <- None) p.steps) c.flwor_plans;
    (* listed even when nothing is copied, so --explain shows the 0 *)
    Stats.incr ~by:0 "constructed_nodes_copied";
    eval { c; vars = []; citem = None; cpos = 0; csize = 0; memo = [] } c.query.Ast.main

  let eval_string ?optimize store src =
    run (compile ?optimize store (Parser.parse_query src))

  (* a context for item utilities outside any query *)
  let bare_ctx store =
    let c =
      { store; query = { Ast.functions = []; main = Ast.Root }; funcs = Hashtbl.create 1;
        flwor_plans = []; tag_arrays = Hashtbl.create 1; optimize = false;
        join_tables = Hashtbl.create 1; ineq_tables = Hashtbl.create 1; vec = None;
        vec_plans = Hashtbl.create 1 }
    in
    { c; vars = []; citem = None; cpos = 0; csize = 0; memo = [] }

  let string_of_item store it = string_value_of (bare_ctx store) it

  (* a parentless constructed root is the result as it is; anything else
     is copied out of the tree or store holding it *)
  let result_to_dom store v =
    let ctx = bare_ctx store in
    List.map (function C d when Option.is_none d.Dom.parent -> d | it -> item_to_dom ctx it) v
end
