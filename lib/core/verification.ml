type divergence = { position : int; reference_excerpt : string; candidate_excerpt : string }

type report = {
  query : int;
  agreed : bool;
  items : (Runner.system * int) list;
  digests : (Runner.system * string) list;
  divergence : (Runner.system * divergence) option;
}

let excerpt s pos =
  let from = max 0 (pos - 20) in
  let len = min 60 (String.length s - from) in
  if len <= 0 then "<end of result>" else String.sub s from len

let diverge ~reference candidate =
  if String.equal reference candidate then None
  else
    let n = min (String.length reference) (String.length candidate) in
    let rec go i = if i < n && reference.[i] = candidate.[i] then go (i + 1) else i in
    let position = go 0 in
    Some
      {
        position;
        reference_excerpt = excerpt reference position;
        candidate_excerpt = excerpt candidate position;
      }

let reference_system systems = if List.mem Runner.D systems then Runner.D else List.hd systems

let first_divergence = function
  | [] -> None
  | results ->
      let reference = List.assq (reference_system (List.map fst results)) results in
      List.find_map
        (fun (sys, canon) -> Option.map (fun d -> (sys, d)) (diverge ~reference canon))
        results

let compare_systems ?(queries = List.init Queries.count (fun i -> i + 1))
    ?(systems = Runner.all_systems) doc =
  let stores =
    List.map (fun sys -> (sys, (Runner.load ~source:(`Text doc) sys).Runner.store)) systems
  in
  List.map
    (fun query ->
      let outcomes = List.map (fun (sys, store) -> (sys, Runner.run store query)) stores in
      let canons = List.map (fun (sys, o) -> (sys, Runner.canonical o)) outcomes in
      let divergence = first_divergence canons in
      {
        query;
        agreed = divergence = None;
        items = List.map (fun (sys, o) -> (sys, o.Runner.items)) outcomes;
        digests = List.map (fun (sys, c) -> (sys, Digest.to_hex (Digest.string c))) canons;
        divergence;
      })
    queries

let pp_report fmt r =
  Format.fprintf fmt "Q%-3d %s" r.query (if r.agreed then "agree " else "DIFFER");
  List.iter
    (fun (sys, d) ->
      Format.fprintf fmt "  %s:%s" (Runner.system_name sys) (String.sub d 0 8))
    r.digests;
  (match r.divergence with
  | None -> ()
  | Some (sys, d) ->
      let ref_name = Runner.system_name (reference_system (List.map fst r.digests))
      and name = Runner.system_name sys in
      Format.fprintf fmt "@\n     first divergence at byte %d between %s and %s:@\n" d.position
        ref_name name;
      Format.fprintf fmt "       %s: ...%s...@\n" ref_name d.reference_excerpt;
      Format.fprintf fmt "       %s: ...%s..." name d.candidate_excerpt);
  Format.fprintf fmt "@\n"

let all_agree reports = List.for_all (fun r -> r.agreed) reports
