(* Order statistics over latency samples. *)

let sorted xs = List.sort Float.compare xs

(* Nearest rank: the smallest sample with at least [p]% of the samples at
   or below it — always one of the samples.  0 on no samples. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (rank - 1)))

(* The midpoint median (mean of the two middle samples on an even count). *)
let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles xs ~n:4] (the
   default "exclusive" method), so spreads printed here match the ones a
   reader recomputes from the JSON. *)
let quartiles xs =
  match sorted xs with
  | [] -> (0.0, 0.0, 0.0)
  | [ x ] -> (x, x, x)
  | s ->
      let a = Array.of_list s in
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
      in
      (q 1, q 2, q 3)

(* Geometric mean of positive values; a value below 1 µs counts as 1 µs,
   so a sub-microsecond query cannot pull the mean toward zero. *)
let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let logs = List.map (fun x -> Float.log (Float.max x 0.001)) xs in
      Float.exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length xs))

let minimum xs = match xs with [] -> 0.0 | x :: rest -> List.fold_left Float.min x rest

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den = if den = 0.0 then 0.0 else num /. den
