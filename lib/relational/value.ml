type t = Int of int | Num of float | Str of string | Null

let rank = function Null -> 0 | Int _ | Num _ -> 1 | Str _ -> 2

let to_float = function
  | Int i -> float_of_int i
  | Num f -> f
  | Str s -> ( match float_of_string_opt (String.trim s) with Some f -> f | None -> Float.nan)
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
