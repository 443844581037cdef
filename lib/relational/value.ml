type t = Int of int | Num of float | Str of string | Null

let rank = function Null -> 0 | Int _ | Num _ -> 1 | Str _ -> 2

let rec skip_digits s i =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then skip_digits s (i + 1) else i

(* One scan of the trimmed string checks the grammar; only an accepted
   lexeme reaches [float_of_string], which alone would also take OCaml's
   own forms (1_000, 0x10, inf). *)
let number_of_string s =
  let t = String.trim s in
  let n = String.length t in
  let m = if n > 0 && (t.[0] = '+' || t.[0] = '-') then 1 else 0 in
  let int_end = skip_digits t m in
  let frac_end = if int_end < n && t.[int_end] = '.' then skip_digits t (int_end + 1) else int_end in
  let exp_end =
    if frac_end < n && (t.[frac_end] = 'e' || t.[frac_end] = 'E') then
      let d = frac_end + 1 in
      let d = if d < n && (t.[d] = '+' || t.[d] = '-') then d + 1 else d in
      let e = skip_digits t d in
      if e > d then e else -1
    else frac_end
  in
  (* a digit on at least one side of the point, and nothing after *)
  if ((int_end > m || frac_end > int_end + 1) && exp_end = n)
     || t = "INF" || t = "-INF" || t = "NaN"
  then Some (float_of_string t)
  else None

let to_float = function
  | Int i -> float_of_int i
  | Num f -> f
  | Str s -> ( match number_of_string s with Some f -> f | None -> Float.nan)
  | Null -> Float.nan

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | (Int _ | Num _), (Int _ | Num _) -> Float.compare (to_float a) (to_float b)
  | Str x, Str y -> String.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Int i -> Hashtbl.hash (float_of_int i)
  | Num f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_nan f then "NaN"
  else if f = Float.infinity then "INF"
  else if f = Float.neg_infinity then "-INF"
  else Printf.sprintf "%.12g" f

let to_string = function
  | Int i -> string_of_int i
  | Num f -> number_to_string f
  | Str s -> s
  | Null -> ""

let of_float f = Num f

let pp fmt v = Format.pp_print_string fmt (to_string v)
