(* Execution-statistics registry, one per domain.

   Since Workload's runner domains and the benchmark's load generators
   run clients on OCaml 5 domains, the registry cannot be a process-wide
   mutable singleton: concurrent [incr]s would race.  Instead every domain owns
   a private registry in domain-local storage; the only shared piece of
   state is the enabled flag, an [Atomic.t] written before domains are
   spawned and read (a plain load on x86) on every instrumented path.

   A spawned domain accumulates into its own registry and hands the
   deltas back when it is joined ([export_and_clear] on the spawned
   domain, [absorb] on the joining one).  Counter addition commutes, so
   the merged registry holds totals identical to a sequential run.

   The hot path (incr while disabled) is a single atomic load; while
   enabled it is a domain-local fetch plus two hashtable probes, the
   first of which is cached per scope. *)

(* --- the clock ------------------------------------------------------------ *)

(* CLOCK_MONOTONIC through bechamel's noalloc stub: an NTP step or a
   manual clock change cannot shorten a deadline or skew a latency.  The
   origin is arbitrary, so only differences of two readings mean
   anything. *)
let now_ns () = Monotonic_clock.now ()

let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

type counters = (string, int ref) Hashtbl.t

type state = {
  scopes : (string, counters) Hashtbl.t;
  mutable path : string;  (* current scope path, "" at top level *)
  mutable current : counters;  (* cache: scopes[path] *)
}

let scope_table scopes path =
  match Hashtbl.find_opt scopes path with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 32 in
      Hashtbl.replace scopes path t;
      t

let fresh_state () =
  let scopes = Hashtbl.create 16 in
  { scopes; path = ""; current = scope_table scopes "" }

(* Shared across domains; toggle only before spawning any. *)
let on = Atomic.make false

(* Each domain (the main one included) lazily gets a private registry. *)
let key : state Domain.DLS.key = Domain.DLS.new_key fresh_state

let st () = Domain.DLS.get key

let enabled () = Atomic.get on

let enable () = Atomic.set on true

let disable () = Atomic.set on false

let set_enabled b = Atomic.set on b

let reset () =
  let st = st () in
  Hashtbl.reset st.scopes;
  st.current <- scope_table st.scopes st.path

let current_scope () = (st ()).path

let with_scope name f =
  if not (Atomic.get on) then f ()
  else begin
    let st = st () in
    let saved_path = st.path and saved_current = st.current in
    let path = if st.path = "" then name else st.path ^ "/" ^ name in
    st.path <- path;
    st.current <- scope_table st.scopes path;
    Fun.protect
      ~finally:(fun () ->
        st.path <- saved_path;
        st.current <- saved_current)
      f
  end

let incr ?(by = 1) name =
  if Atomic.get on then begin
    let st = st () in
    match Hashtbl.find_opt st.current name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace st.current name (ref by)
  end

let count_allocations f =
  if not (Atomic.get on) then f ()
  else begin
    (* Gc.minor_words, not quick_stat.minor_words: the latter omits
       young-generation allocation since the last minor collection. *)
    let m0 = Gc.minor_words () in
    let g0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let g1 = Gc.quick_stat () in
        let m1 = Gc.minor_words () in
        incr ~by:(int_of_float (m1 -. m0)) "gc_minor_words";
        incr ~by:(int_of_float (g1.Gc.major_words -. g0.Gc.major_words)) "gc_major_words";
        incr
          ~by:(g1.Gc.major_collections - g0.Gc.major_collections)
          "gc_major_collections")
      f
  end

let get ~scope name =
  match Hashtbl.find_opt (st ()).scopes scope with
  | None -> 0
  | Some t -> ( match Hashtbl.find_opt t name with Some r -> !r | None -> 0)

let totals_tbl () =
  let acc = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ t ->
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt acc name with
          | Some a -> a := !a + !r
          | None -> Hashtbl.replace acc name (ref !r))
        t)
    (st ()).scopes;
  acc

let total name =
  match Hashtbl.find_opt (totals_tbl ()) name with Some r -> !r | None -> 0

(* --- snapshots ----------------------------------------------------------- *)

type snapshot = (string * int) list

let sorted_assoc tbl =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () = sorted_assoc (totals_tbl ())

let since snap =
  let now = totals_tbl () in
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt now name with
      | Some r -> r := !r - v
      | None -> Hashtbl.replace now name (ref (-v)))
    snap;
  List.filter (fun (_, v) -> v <> 0) (sorted_assoc now)

(* --- cross-domain transfer ------------------------------------------------ *)

type export = (string * (string * int) list) list

let export_and_clear () =
  let st = st () in
  let dump =
    Hashtbl.fold
      (fun scope t acc ->
        match sorted_assoc t with [] -> acc | cs -> (scope, cs) :: acc)
      st.scopes []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Hashtbl.reset st.scopes;
  st.current <- scope_table st.scopes st.path;
  dump

let absorb dump =
  let st = st () in
  List.iter
    (fun (scope, cs) ->
      let t = scope_table st.scopes scope in
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt t name with
          | Some r -> r := !r + v
          | None -> Hashtbl.replace t name (ref v))
        cs)
    dump

(* --- rendering ----------------------------------------------------------- *)

let counter_inventory =
  [
    "nodes_scanned"; "elements_materialized"; "constructed_nodes_copied";
    "index_lookups"; "index_hits";
    "join_tables_built"; "join_probes"; "batches_produced"; "batch_tuples";
    "hash_join_probes"; "vec_fallbacks"; "tag_array_cache_hits";
    "tag_array_cache_misses"; "sax_events"; "tuples_emitted";
    "pager_hits"; "pager_misses"; "pager_evictions"; "snapshot_bytes";
    "plan_cache_hits"; "plan_cache_misses";
    "service_requests"; "service_rejections"; "service_timeouts";
    "wal_appends"; "wal_bytes"; "wal_records_replayed";
    "publish_relabels"; "publish_nodes_built";
    "shards_queried"; "partials_merged"; "broadcast_bytes";
    "gc_minor_words"; "gc_major_words"; "gc_major_collections";
  ]

let to_assoc () =
  Hashtbl.fold
    (fun scope t acc ->
      match sorted_assoc t with [] -> acc | cs -> (scope, cs) :: acc)
    (st ()).scopes []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let totals () = sorted_assoc (totals_tbl ())

let pp fmt () =
  let groups = to_assoc () in
  if groups = [] then Format.fprintf fmt "(no statistics recorded)@."
  else begin
    Format.fprintf fmt "%-24s %-28s %12s@." "scope" "counter" "value";
    Format.fprintf fmt "%s@." (String.make 66 '-');
    List.iter
      (fun (scope, cs) ->
        let label = if scope = "" then "(top)" else scope in
        List.iter
          (fun (name, v) -> Format.fprintf fmt "%-24s %-28s %12d@." label name v)
          cs)
      groups
  end

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_counters counters =
  (* stable schema: the canonical inventory first (0 when absent), then
     any further counters the run touched, in name order *)
  let extras =
    List.filter (fun (name, _) -> not (List.mem name counter_inventory)) counters
  in
  let fields =
    List.map
      (fun name -> (name, Option.value ~default:0 (List.assoc_opt name counters)))
      counter_inventory
    @ extras
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (name, v) -> Printf.sprintf "\"%s\": %d" (json_escape name) v) fields)
  ^ "}"
