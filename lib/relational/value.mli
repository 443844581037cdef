(** Scalar values of the mini relational engine.

    Strings are the generic type, mirroring the paper's observation that
    XML data arrives as strings and is coerced at runtime; [Num] and [Int]
    exist for counters and cast results. *)

type t = Int of int | Num of float | Str of string | Null

val compare : t -> t -> int
(** Total order: Null < Int/Num (numerically merged) < Str. *)

val equal : t -> t -> bool

val hash : t -> int

val number_to_string : float -> string
(** The string form of a double, shared by every system: an integral
    value below 1e15 in magnitude prints as an integer, NaN and the
    infinities as [NaN], [INF] and [-INF] (XQuery 1.0 F&O's cast of
    xs:double to xs:string), anything else as [%.12g]. *)

val number_of_string : string -> float option
(** The cast of a string to xs:double: after trimming surrounding
    whitespace, XML Schema 1.0's double lexical space — an optional
    sign, digits with an optional [.], an optional exponent ([1],
    [-1.5], [1.], [.5e1]), or exactly [INF], [-INF] or [NaN].  Anything
    else, OCaml's own forms such as [1_000], [0x10] and [inf] included,
    is [None]. *)

val to_string : t -> string

val to_float : t -> float
(** Runtime cast; [Str] parses as {!number_of_string}, failures and
    [Null] give [nan]. *)

val of_float : float -> t

val pp : Format.formatter -> t -> unit
