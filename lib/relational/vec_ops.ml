let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

type adapter = {
  node_count : int;
  root : int;
  parent : int -> int;
  tag_of : int -> int;
  card : int -> int;
  extent : int -> int array;
  element_ids : unit -> int array;
  subtree_end : unit -> int -> int;
  probe_children : tag:int -> parent:int -> Batch.t -> unit;
  relation_count : int;
}

type test = Tag of int | Star

type pred = { sel_label : string; sel_est : float; sel_fn : int -> bool }

type lstep = Child of test | Descendant of test | Select of pred

type phys =
  | P_root of test
  | P_whole_extent of int
  | P_all_elements
  | P_probe of test
  | P_semijoin of int
  | P_interval of test
  | P_closure of test
  | P_select of pred

type pstep = { phys : phys; note : string; est_in : float; est_out : float }

type plan = pstep list

(* Cost-model constants.  Dimensionless "row touches"; only the ratios
   matter.  [probe_cost] is the per-parent price of a child-index lookup
   (hashing plus bucket walk) against the one-pass extent scan's
   per-row price of 1.  [child_fanout]/[subtree_fanout] bound how fast
   estimates grow through untyped steps; [default_selectivity] is the
   textbook 10% for an equality predicate we know nothing about. *)
let probe_cost = 16.
let child_fanout = 4.
let subtree_fanout = 8.
let default_selectivity = 0.1

let test_card adapter = function
  | Tag t -> float_of_int (adapter.card t)
  | Star -> float_of_int adapter.node_count

let compile_steps adapter ~first:first0 ~est_in lsteps =
  if lsteps = [] then invalid_arg "Vec_ops.compile: empty step list";
  (match lsteps with
  | Select _ :: _ -> invalid_arg "Vec_ops.compile: plan starts with a predicate"
  | _ -> ());
  (* [prev_card] is the cardinality of the tag the incoming node set was
     last narrowed to; node_count / prev_card estimates the average
     subtree size under each input node, which is what a closure walk
     actually visits.  1.0 (= whole document per input) is the
     conservative default when the incoming tag is unknown — it biases
     descendant steps toward the interval join, whose cost is bounded by
     the extent regardless of how deep the inputs' subtrees are. *)
  let rec go ~first ~prev_card est = function
    | [] -> []
    | step :: rest ->
        let pstep =
          match step with
          | Child test when first ->
              { phys = P_root test; note = "document child = root test"; est_in = 1.; est_out = 1. }
          | Descendant (Tag t) when first ->
              let c = float_of_int (adapter.card t) in
              {
                phys = P_whole_extent t;
                note = Printf.sprintf "card(tag)=%.0f, no walk needed" c;
                est_in = 1.;
                est_out = c;
              }
          | Descendant Star when first ->
              {
                phys = P_all_elements;
                note = "every element";
                est_in = 1.;
                est_out = float_of_int adapter.node_count;
              }
          | Child (Tag t) ->
              let card = float_of_int (adapter.card t) in
              let cost_probe = est *. probe_cost in
              let cost_join = card +. est in
              let est_out = Float.min card (est *. child_fanout) in
              if cost_probe <= cost_join then
                {
                  phys = P_probe (Tag t);
                  note =
                    Printf.sprintf "probe %.0f*%.0f <= semijoin card %.0f+%.0f" est probe_cost card
                      est;
                  est_in = est;
                  est_out;
                }
              else
                {
                  phys = P_semijoin t;
                  note =
                    Printf.sprintf "semijoin card %.0f+%.0f < probe %.0f*%.0f" card est est
                      probe_cost;
                  est_in = est;
                  est_out;
                }
          | Child Star ->
              let est_out =
                Float.min (float_of_int adapter.node_count) (est *. child_fanout)
              in
              { phys = P_probe Star; note = "untyped child: index probe"; est_in = est; est_out }
          | Descendant test ->
              let card = test_card adapter test in
              let subtree =
                float_of_int adapter.node_count /. Float.max 1. prev_card
              in
              let cost_interval = card +. est in
              let cost_closure =
                est *. subtree *. float_of_int adapter.relation_count
              in
              let est_out = Float.min card (est *. subtree_fanout) in
              if cost_interval <= cost_closure then
                {
                  phys = P_interval test;
                  note =
                    Printf.sprintf
                      "interval card %.0f+%.0f <= closure %.0f*~%.0f subtree nodes*%d rels" card
                      est est subtree adapter.relation_count;
                  est_in = est;
                  est_out;
                }
              else
                {
                  phys = P_closure test;
                  note =
                    Printf.sprintf
                      "closure %.0f*~%.0f subtree nodes*%d rels < interval card %.0f+%.0f" est
                      subtree adapter.relation_count card est;
                  est_in = est;
                  est_out;
                }
          | Select pred ->
              let s = if pred.sel_est > 0. then pred.sel_est else default_selectivity in
              {
                phys = P_select pred;
                note = Printf.sprintf "predicate %s, selectivity %.2f" pred.sel_label s;
                est_in = est;
                est_out = est *. s;
              }
        in
        let next_card =
          match step with
          | Child (Tag t) | Descendant (Tag t) ->
              Float.max 1. (float_of_int (adapter.card t))
          | Child Star | Descendant Star -> 1.
          | Select _ -> prev_card
        in
        pstep :: go ~first:false ~prev_card:next_card pstep.est_out rest
  in
  go ~first:first0 ~prev_card:1. est_in lsteps

let compile adapter lsteps = compile_steps adapter ~first:true ~est_in:1. lsteps

let compile_from adapter ~est_in lsteps =
  compile_steps adapter ~first:false ~est_in lsteps

(* --- execution --- *)

let matches adapter test id =
  match test with
  | Star -> adapter.tag_of id >= 0
  | Tag t -> adapter.tag_of id = t

(* Drop ids lying inside the subtree of an earlier id.  Input sorted
   ascending; the survivors' intervals are pairwise disjoint. *)
let prune_nested adapter ids =
  let send = adapter.subtree_end () in
  let keep = Batch.create ~capacity:(Array.length ids) () in
  let limit = ref (-1) in
  Array.iter
    (fun id ->
      if id > !limit then begin
        Batch.push keep id;
        limit := send id
      end)
    ids;
  (Batch.to_array keep, send)

let exec_step adapter ~poll input pstep =
  match pstep.phys with
  | P_root test -> if matches adapter test adapter.root then [| adapter.root |] else [||]
  | P_whole_extent t -> adapter.extent t
  | P_all_elements -> adapter.element_ids ()
  | P_probe test ->
      let tag = match test with Tag t -> t | Star -> -1 in
      let out = Batch.create () in
      Batch.iter_blocks ~poll
        (fun ids off len ->
          for i = off to off + len - 1 do
            adapter.probe_children ~tag ~parent:ids.(i) out
          done)
        input;
      Batch.sorted_unique out
  | P_semijoin t ->
      (* Symbol-id-keyed hash join: build side = input id set, probe
         side = the tag's extent rows keyed by parent id. *)
      let build = Hashtbl.create (max 16 (Array.length input)) in
      Array.iter (fun id -> Hashtbl.replace build id ()) input;
      let out = Batch.create () in
      Batch.iter_blocks ~poll
        (fun ids off len ->
          Xmark_stats.incr ~by:len "hash_join_probes";
          for i = off to off + len - 1 do
            let c = ids.(i) in
            if Hashtbl.mem build (adapter.parent c) then Batch.push out c
          done)
        (adapter.extent t);
      (* extent is sorted and duplicate-free; the filter preserves that *)
      Batch.to_array out
  | P_interval test ->
      let pruned, send = prune_nested adapter input in
      let n = Array.length pruned in
      if n = 0 then [||]
      else begin
        let candidates =
          match test with Tag t -> adapter.extent t | Star -> adapter.element_ids ()
        in
        let out = Batch.create () in
        let j = ref 0 in
        let jend = ref (send pruned.(0)) in
        Batch.iter_blocks ~poll
          (fun ids off len ->
            for i = off to off + len - 1 do
              let c = ids.(i) in
              while !j < n && !jend < c do
                incr j;
                if !j < n then jend := send pruned.(!j)
              done;
              (* strict descendant: inside the interval, not the root itself *)
              if !j < n && pruned.(!j) < c && c <= !jend then Batch.push out c
            done)
          candidates;
        Batch.to_array out
      end
  | P_closure test ->
      let out = Batch.create () in
      let frontier = ref input in
      while Array.length !frontier > 0 do
        let next = Batch.create () in
        Batch.iter_blocks ~poll
          (fun ids off len ->
            for i = off to off + len - 1 do
              adapter.probe_children ~tag:(-1) ~parent:ids.(i) next
            done)
          !frontier;
        let level = Batch.sorted_unique next in
        Array.iter (fun id -> if matches adapter test id then Batch.push out id) level;
        frontier := level
      done;
      Batch.sorted_unique out
  | P_select pred ->
      let out = Batch.create () in
      Batch.iter_blocks ~poll
        (fun ids off len ->
          for i = off to off + len - 1 do
            if pred.sel_fn ids.(i) then Batch.push out ids.(i)
          done)
        input;
      Batch.to_array out

let execute_from adapter ~poll plan input =
  let rec go input = function
    | [] -> input
    | pstep :: rest -> (
        match pstep.phys with
        | P_root _ | P_whole_extent _ | P_all_elements ->
            go (exec_step adapter ~poll input pstep) rest
        | _ when Array.length input = 0 -> [||]
        | _ -> go (exec_step adapter ~poll input pstep) rest)
  in
  go input plan

let execute adapter ~poll plan = execute_from adapter ~poll plan [| adapter.root |]

let string_of_phys ~tag_name phys =
  let test = function Star -> "*" | Tag t -> tag_name t in
  match phys with
  | P_root t -> Printf.sprintf "root-test(%s)" (test t)
  | P_whole_extent t -> Printf.sprintf "whole-extent(%s)" (tag_name t)
  | P_all_elements -> "all-elements"
  | P_probe t -> Printf.sprintf "child-probe(%s)" (test t)
  | P_semijoin t -> Printf.sprintf "hash-semijoin(%s)" (tag_name t)
  | P_interval t -> Printf.sprintf "interval-join(%s)" (test t)
  | P_closure t -> Printf.sprintf "closure-walk(%s)" (test t)
  | P_select pred -> Printf.sprintf "select[%s]" pred.sel_label

let explain ~tag_name plan =
  List.mapi
    (fun i p ->
      Printf.sprintf "step %d: %s  est %.0f -> %.0f  [%s]" (i + 1)
        (string_of_phys ~tag_name p.phys) p.est_in p.est_out p.note)
    plan

(* --- helpers for adapter builders --- *)

let subtree_ends parents =
  let n = Array.length parents in
  let ends = Array.init n (fun i -> i) in
  for id = n - 1 downto 1 do
    let p = parents.(id) in
    if p >= 0 && ends.(p) < ends.(id) then ends.(p) <- ends.(id)
  done;
  ends

let fold_rows_blocked ~poll ~row_count f init =
  let acc = ref init in
  let off = ref 0 in
  while !off < row_count do
    poll ();
    let len = min Batch.block_size (row_count - !off) in
    Xmark_stats.incr "batches_produced";
    Xmark_stats.incr ~by:len "batch_tuples";
    for i = !off to !off + len - 1 do
      acc := f !acc i
    done;
    off := !off + len
  done;
  !acc
