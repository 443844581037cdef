module Xml = Xmark_xml
module Store = Xmark_store
module R = Xmark_relational
module Stats = Xmark_stats

type system = A | B | C | D | E | F | G

let all_systems = [ A; B; C; D; E; F; G ]

let mass_storage = [ A; B; C; D; E; F ]

let system_name = function
  | A -> "System A"
  | B -> "System B"
  | C -> "System C"
  | D -> "System D"
  | E -> "System E"
  | F -> "System F"
  | G -> "System G"

let system_description = function
  | A -> "relational, single-heap edge mapping (cost-based optimizer)"
  | B -> "relational, fragmenting per-tag mapping (cost-based optimizer)"
  | C -> "relational, DTD-derived inlined schema, prepared plans"
  | D -> "main-memory, structural summary + ID index"
  | E -> "main-memory, ID index only"
  | F -> "main-memory, plain navigation"
  | G -> "embedded query processor, re-parses the document per query"

module EvA = Xmark_xquery.Eval.Make (Store.Backend_heap)
module EvB = Xmark_xquery.Eval.Make (Store.Backend_shredded)
module EvM = Xmark_xquery.Eval.Make (Store.Backend_mainmem)

type store =
  | SA of Store.Backend_heap.t
  | SB of Store.Backend_shredded.t
  | SC of Store.Backend_schema.t
  | SM of Store.Backend_mainmem.t  (* systems D, E, F *)
  | SG of Store.Backend_embedded.t  (* re-parses per execution *)

type load_stats = { load : Timing.span; db_bytes : int; nodes : int }

(* Phase scopes: counters recorded while loading / compiling / executing
   land in "bulkload" / "compile" / "execute", so an --explain dump can
   attribute e.g. System G's sax_events to execution while A-F pay them
   at bulkload.  Every phase also samples the GC (allocation is a real
   cost of materializing mappings), so --stats-json shows per-phase
   gc_minor_words / gc_major_words / gc_major_collections deltas. *)
let measure_load f =
  Stats.with_scope "bulkload" (fun () -> Stats.count_allocations (fun () -> Timing.measure f))

let measure_compile f =
  Stats.with_scope "compile" (fun () -> Stats.count_allocations (fun () -> Timing.measure f))

let measure_execute f =
  Stats.with_scope "execute" (fun () -> Stats.count_allocations (fun () -> Timing.measure f))

type source =
  [ `File of string
  | `Text of string
  | `Dom of Xml.Dom.node
  | `Snapshot of string ]

type session = { system : system; store : store; load_stats : load_stats }

exception Unsupported of string

(* Rebuild a plain DOM from any store implementing the navigation
   signature — how System A's heap store serializes into a snapshot. *)
let rec heap_dom s n =
  match Store.Backend_heap.kind s n with
  | `Text -> Xml.Dom.text (Store.Backend_heap.text s n)
  | `Element ->
      Xml.Dom.element_sym
        ~attrs:(Store.Backend_heap.attributes s n)
        ~children:(List.map (heap_dom s) (Store.Backend_heap.children s n))
        (Store.Backend_heap.name s n)

let rec load ~(source : source) sys =
  match source with
  | `Snapshot path -> load_snapshot ~path sys
  | (`File _ | `Text _ | `Dom _) as source -> (
  let text () =
    match source with
    | `Text s -> s
    | `File path -> In_channel.with_open_bin path In_channel.input_all
    | `Dom d -> Xml.Serialize.to_string d
  in
  let store, load_stats =
    match sys with
    | A ->
        let s, load =
          measure_load (fun () ->
              match source with
              | `Dom d -> Store.Backend_heap.load_dom d
              | `Text _ | `File _ -> Store.Backend_heap.load_string (text ()))
        in
        ( SA s,
          {
            load;
            db_bytes = Store.Backend_heap.size_bytes s;
            nodes = Store.Backend_heap.node_count s;
          } )
    | B ->
        let s, load =
          measure_load (fun () ->
              match source with
              | `Dom d -> Store.Backend_shredded.load_dom d
              | `Text _ | `File _ -> Store.Backend_shredded.load_string (text ()))
        in
        ( SB s,
          {
            load;
            db_bytes = Store.Backend_shredded.size_bytes s;
            nodes = Store.Backend_shredded.node_count s;
          } )
    | C ->
        let s, load =
          measure_load (fun () ->
              match source with
              | `Dom d -> Store.Backend_schema.load_dom d
              | `Text _ | `File _ -> Store.Backend_schema.load_string (text ()))
        in
        ( SC s,
          {
            load;
            db_bytes = Store.Backend_schema.size_bytes s;
            nodes = Store.Backend_schema.row_total s;
          } )
    | D | E | F ->
        let level = match sys with D -> `Full | E -> `Id_only | _ -> `Plain in
        let s, load =
          measure_load (fun () ->
              match source with
              | `Dom d -> Store.Backend_mainmem.create ~level d
              | `Text _ | `File _ -> Store.Backend_mainmem.of_string ~level (text ()))
        in
        ( SM s,
          {
            load;
            db_bytes = Store.Backend_mainmem.size_bytes s;
            nodes = Store.Backend_mainmem.node_count s;
          } )
    | G ->
        (* An embedded processor has no database: "bulkload" just keeps
           the serialized document around, whatever the source form. *)
        let s, load = measure_load (fun () -> Store.Backend_embedded.load (text ())) in
        (SG s, { load; db_bytes = Store.Backend_embedded.bytes s; nodes = 0 })
  in
  { system = sys; store; load_stats })

(* Restoring a snapshot still happens under the "bulkload" scope — the
   pager/snapshot counters and the (much smaller) restore time land
   where the parse-and-shred cost would have, so the two load paths
   compare directly in --stats-json. *)
and load_snapshot ~path sys =
  let (_, payload), read_span =
    measure_load (fun () -> Xmark_persist.Snapshot.read path)
  in
  let add_read stats = { stats with load = Timing.add read_span stats.load } in
  match (payload, sys) with
  | Xmark_persist.Snapshot.Relational_b img, B ->
      let s, build =
        measure_load (fun () -> Store.Backend_shredded.of_image img)
      in
      {
        system = B;
        store = SB s;
        load_stats =
          add_read
            {
              load = build;
              db_bytes = Store.Backend_shredded.size_bytes s;
              nodes = Store.Backend_shredded.node_count s;
            };
      }
  | Xmark_persist.Snapshot.Relational_c tables, C ->
      let s, build =
        measure_load (fun () -> Store.Backend_schema.of_tables tables)
      in
      {
        system = C;
        store = SC s;
        load_stats =
          add_read
            {
              load = build;
              db_bytes = Store.Backend_schema.size_bytes s;
              nodes = Store.Backend_schema.row_total s;
            };
      }
  | Xmark_persist.Snapshot.Dom d, _ ->
      let session = load ~source:(`Dom d) sys in
      { session with load_stats = add_read session.load_stats }
  | Xmark_persist.Snapshot.Text doc, _ ->
      let session = load ~source:(`Text doc) sys in
      { session with load_stats = add_read session.load_stats }
  | Xmark_persist.Snapshot.Relational_b _, _ ->
      raise
        (Unsupported
           (Printf.sprintf
              "%s holds a System B relational image; load it with System B" path))
  | Xmark_persist.Snapshot.Relational_c _, _ ->
      raise
        (Unsupported
           (Printf.sprintf
              "%s holds a System C relational image; load it with System C" path))

let save_snapshot session path =
  let payload =
    match session.store with
    | SB s -> Xmark_persist.Snapshot.Relational_b (Store.Backend_shredded.to_image s)
    | SC s -> Xmark_persist.Snapshot.Relational_c (Store.Backend_schema.snapshot_tables s)
    | SM s -> Xmark_persist.Snapshot.Dom (Store.Backend_mainmem.dom_root s)
    | SA s -> Xmark_persist.Snapshot.Dom (heap_dom s (Store.Backend_heap.root s))
    | SG g -> Xmark_persist.Snapshot.Text (Store.Backend_embedded.document g)
  in
  let system =
    match session.system with
    | A -> 'A' | B -> 'B' | C -> 'C' | D -> 'D' | E -> 'E' | F -> 'F' | G -> 'G'
  in
  Xmark_persist.Snapshot.write ~path ~system payload

let adopt_mainmem s =
  let system =
    match Store.Backend_mainmem.level s with `Full -> D | `Id_only -> E | `Plain -> F
  in
  {
    system;
    store = SM s;
    load_stats =
      {
        load = Timing.zero;
        db_bytes = Store.Backend_mainmem.size_bytes s;
        nodes = Store.Backend_mainmem.node_count s;
      };
  }

type outcome = {
  compile : Timing.span;
  execute : Timing.span;
  items : int;
  result : Xml.Dom.node list;
  metadata_accesses : int;
  run_stats : (string * int) list;
      (* per-counter deltas accumulated by this run; [] when Stats is off *)
}

(* --- prepared plans -------------------------------------------------------- *)

(* A prepared plan carries everything [execute_prepared] needs: the
   typed store it was compiled against plus the compiled form, and the
   compile-phase cost so outcomes keep reporting it.  Compiled Eval
   plans hold mutable per-plan caches (tag arrays, join tables), so a
   prepared plan must be used by one evaluation at a time — the query
   service's plan cache checks plans out exclusively for this reason. *)
type plan_repr =
  | PlA of Store.Backend_heap.t * EvA.compiled
  | PlB of Store.Backend_shredded.t * EvB.compiled
  | PlM of Store.Backend_mainmem.t * EvM.compiled
  | PlC of Plans_c.plan
  | PlG of Store.Backend_embedded.t * Xmark_xquery.Ast.query

type prepared = {
  p_compile : Timing.span;
  p_metadata : int;
  p_repr : plan_repr;
}

let prepare_text store qtext =
  match store with
  | SA s ->
      let cat = Store.Backend_heap.catalog s in
      R.Catalog.reset_counters cat;
      let compiled, compile =
        measure_compile (fun () -> EvA.compile s (Xmark_xquery.Parser.parse_query qtext))
      in
      { p_compile = compile;
        p_metadata = R.Catalog.metadata_accesses cat;
        p_repr = PlA (s, compiled) }
  | SB s ->
      let cat = Store.Backend_shredded.catalog s in
      R.Catalog.reset_counters cat;
      let compiled, compile =
        measure_compile (fun () -> EvB.compile s (Xmark_xquery.Parser.parse_query qtext))
      in
      { p_compile = compile;
        p_metadata = R.Catalog.metadata_accesses cat;
        p_repr = PlB (s, compiled) }
  | SM s ->
      (* Every system runs equi-joins as hash joins; only System D's
         heuristic optimizer also fuses the theta joins of Q11/Q12 into
         counted binary searches (the paper hand-optimized plans per
         system, and D alone was fast on Q11/Q12). *)
      let optimize = Store.Backend_mainmem.level s = `Full in
      let compiled, compile =
        measure_compile (fun () ->
            EvM.compile ~optimize s (Xmark_xquery.Parser.parse_query qtext))
      in
      { p_compile = compile; p_metadata = 0; p_repr = PlM (s, compiled) }
  | SG g ->
      (* compile = query parse; execution = document parse + evaluation *)
      let ast, compile = measure_compile (fun () -> Xmark_xquery.Parser.parse_query qtext) in
      { p_compile = compile; p_metadata = 0; p_repr = PlG (g, ast) }
  | SC _ ->
      raise
        (Unsupported
           "System C executes prepared plans only; use Runner.run with a query number")

let prepare store n =
  match store with
  | SC s ->
      let cat = Store.Backend_schema.catalog s in
      R.Catalog.reset_counters cat;
      let plan, compile =
        measure_compile (fun () ->
            (* System C still parses the query text before mapping it to its
               prepared plan, as the original translated each query. *)
            ignore (Xmark_xquery.Parser.parse_query (Queries.text n));
            Plans_c.compile s n)
      in
      { p_compile = compile;
        p_metadata = R.Catalog.metadata_accesses cat;
        p_repr = PlC plan }
  | SA _ | SB _ | SM _ | SG _ -> prepare_text store (Queries.text n)

(* [snap] anchors the outcome's counter deltas: run/run_text pass the
   snapshot taken before their compile phase, so a one-shot outcome
   keeps covering compile + execute, while [execute_prepared] covers
   just the execution it performs. *)
let execute_from snap p =
  match p.p_repr with
  | PlA (s, compiled) ->
      let v, execute = measure_execute (fun () -> EvA.run compiled) in
      { compile = p.p_compile; execute; items = List.length v;
        result = EvA.result_to_dom s v; metadata_accesses = p.p_metadata;
        run_stats = Stats.since snap }
  | PlB (s, compiled) ->
      let v, execute = measure_execute (fun () -> EvB.run compiled) in
      { compile = p.p_compile; execute; items = List.length v;
        result = EvB.result_to_dom s v; metadata_accesses = p.p_metadata;
        run_stats = Stats.since snap }
  | PlM (s, compiled) ->
      let v, execute = measure_execute (fun () -> EvM.run compiled) in
      { compile = p.p_compile; execute; items = List.length v;
        result = EvM.result_to_dom s v; metadata_accesses = p.p_metadata;
        run_stats = Stats.since snap }
  | PlC plan ->
      let result, execute = measure_execute (fun () -> Plans_c.execute plan) in
      { compile = p.p_compile; execute; items = List.length result; result;
        metadata_accesses = p.p_metadata; run_stats = Stats.since snap }
  | PlG (g, ast) ->
      let (v, s), execute =
        measure_execute (fun () ->
            let s = Store.Backend_embedded.session g in
            (EvM.run (EvM.compile s ast), s))
      in
      { compile = p.p_compile; execute; items = List.length v;
        result = EvM.result_to_dom s v; metadata_accesses = p.p_metadata;
        run_stats = Stats.since snap }

let execute_prepared p = execute_from (Stats.snapshot ()) p

(* Physical plan rendering for --explain: which parts of the prepared
   plan run vectorized (with the cost-model inputs behind each pick) and
   which fall back to scalar navigation. *)
let plan_description p =
  let eval_lines explain =
    match explain with
    | [] -> [ "scalar navigation (no vectorizable absolute path)" ]
    | plans ->
        List.concat_map
          (fun (path, lines) -> (path ^ ":") :: List.map (fun l -> "  " ^ l) lines)
          plans
  in
  match p.p_repr with
  | PlA (_, compiled) -> eval_lines (EvA.explain_vec compiled)
  | PlB (_, compiled) -> eval_lines (EvB.explain_vec compiled)
  | PlM (_, compiled) -> eval_lines (EvM.explain_vec compiled)
  | PlC plan -> Plans_c.describe plan
  | PlG _ -> [ "embedded processor: document re-parse + scalar navigation" ]

let run_text store qtext =
  let snap = Stats.snapshot () in
  execute_from snap (prepare_text store qtext)

let try_run_text store qtext =
  match run_text store qtext with
  | outcome -> Ok outcome
  | exception Unsupported msg -> Error (`Unsupported msg)

let run store n =
  let snap = Stats.snapshot () in
  execute_from snap (prepare store n)

let run_session session n = run session.store n

let run_text_session session qtext = run_text session.store qtext

let canonical outcome = Xml.Canonical.of_nodes outcome.result
