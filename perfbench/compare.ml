(* [compare BASE NEW]: for every workload and end-to-end metric, both
   sides' medians and quartiles over their untraced runs, the ratio, the
   declared bound and a verdict.

   A side's spread is (q3 - q1) / median.  When either side's spread
   exceeds the bound the verdict is "unresolved" — unless every new run
   beats every base run, or loses to every one.  Otherwise the median
   moving the wrong way by more than the bound is "worse", the right way
   by more than the bound "better", and anything else "within".  Exits 1
   when any verdict is "worse". *)

type side = { values : float list; q1 : float; med : float; q3 : float }

let side values =
  let q1, med, q3 = Stat.quartiles values in
  { values; q1; med; q3 }

let spread s = Stat.ratio (s.q3 -. s.q1) s.med

let values results workload metric =
  List.filter_map
    (fun r ->
      if
        Json.to_string (Json.member "workload" r) = workload
        && Json.to_float (Json.member "trace" r) = 0.0
      then
        match Json.member "result" r with
        | Json.Null -> None
        | res -> (
            match List.assoc_opt metric (Json.to_assoc (Json.member "metrics" res)) with
            | Some m -> Some (Json.to_float (Json.member "value" m))
            | None -> None)
      else None)
    (Json.to_list (Json.member "runs" results))

let verdict ~lower ~bound base next =
  let worse a b = if lower then a > b else a < b in
  let all_pairs rel = List.for_all (fun n -> List.for_all (fun b -> rel n b) base.values) next.values in
  if Float.max (spread base) (spread next) > bound then
    if all_pairs (fun n b -> worse b n) then "better"
    else if all_pairs (fun n b -> worse n b) then "worse"
    else "unresolved"
  else
    let change = Stat.ratio (next.med -. base.med) base.med in
    let loss = if lower then change else -.change in
    if loss > bound then "worse" else if loss < -.bound then "better" else "within"

let run ~spec ~base ~next =
  let spec = Json.of_file spec and base = Json.of_file base and next = Json.of_file next in
  let worse = ref 0 in
  Printf.printf "%-15s %-18s %28s %28s %7s %6s  %s\n" "workload" "metric" "base median [q1, q3]"
    "new median [q1, q3]" "ratio" "bound" "verdict";
  List.iter
    (fun w ->
      let workload = Json.to_string (Json.member "name" w) in
      List.iter
        (fun m ->
          let metric = Json.to_string (Json.member "name" m) in
          let bound = Json.to_float (Json.member "bound" m) in
          let lower = Json.to_string (Json.member "better" m) = "lower" in
          match (values base workload metric, values next workload metric) with
          | [], _ | _, [] -> Printf.printf "%-15s %-18s missing on one side\n" workload metric
          | b, n ->
              let b = side b and n = side n in
              let v = verdict ~lower ~bound b n in
              if v = "worse" then incr worse;
              let show s = Printf.sprintf "%.4g [%.4g, %.4g]" s.med s.q1 s.q3 in
              Printf.printf "%-15s %-18s %28s %28s %7.3f %5.0f%%  %s\n" workload metric (show b)
                (show n) (Stat.ratio n.med b.med) (bound *. 100.0) v)
        (Json.to_list (Json.member "end_to_end" spec)))
    (Json.to_list (Json.member "workloads" spec));
  if !worse > 0 then begin
    Printf.printf "%d regression(s)\n" !worse;
    1
  end
  else 0
