(* The QName-interning layer (Xmark_xml.Symbol): seeded ids must be
   deterministic and mirror the generator's DTD tables, dynamic
   interning must be safe and consistent across domains, and the whole
   mechanism must be invisible in serialized output — symbols are a
   representation change, never a semantic one. *)

module Symbol = Xmark_xml.Symbol
module Dtd = Xmark_xmlgen.Dtd
module Sax = Xmark_xml.Sax
module Serialize = Xmark_xml.Serialize
module Canonical = Xmark_xml.Canonical

let test_seeded_ids_deterministic () =
  Alcotest.(check int) "empty string is id 0" 0 (Symbol.to_int Symbol.empty);
  Alcotest.(check string) "id 0 reads back empty" "" (Symbol.to_string Symbol.empty);
  (* element names occupy ids 1.. in DTD declaration order, in every
     process and on every domain *)
  List.iteri
    (fun i name ->
      Alcotest.(check int) (name ^ " id") (i + 1) (Symbol.to_int (Symbol.intern name)))
    Dtd.element_names;
  (* re-interning never moves an id *)
  List.iter
    (fun name ->
      let a = Symbol.intern name and b = Symbol.intern name in
      Alcotest.(check bool) (name ^ " stable") true (Symbol.equal a b))
    Dtd.element_names

let test_seeded_vocabulary_matches_dtd () =
  let seeded = Symbol.seeded_names () in
  Alcotest.(check int) "seeded_count agrees" Symbol.seeded_count (List.length seeded);
  match seeded with
  | "" :: rest ->
      let n_elems = List.length Dtd.element_names in
      let elems = List.filteri (fun i _ -> i < n_elems) rest in
      let attr_only = List.filteri (fun i _ -> i >= n_elems) rest in
      Alcotest.(check (list string)) "element names in declaration order"
        Dtd.element_names elems;
      (* every DTD attribute name is seeded: either it doubles as an
         element name or it sits in the attribute-only tail *)
      List.iter
        (fun (_, attrs) ->
          List.iter
            (fun a ->
              Alcotest.(check bool) (a ^ " seeded") true
                (List.mem a Dtd.element_names || List.mem a attr_only))
            attrs)
        Dtd.attribute_names;
      (* and the tail holds nothing that is not a DTD attribute name *)
      List.iter
        (fun a ->
          Alcotest.(check bool) (a ^ " is a DTD attribute name") true
            (List.exists (fun (_, attrs) -> List.mem a attrs) Dtd.attribute_names))
        attr_only
  | _ -> Alcotest.fail "seeded vocabulary must start with the empty string"

let test_unknown_name_fallback () =
  (match Symbol.of_int (Symbol.count () + 1_000_000) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_int beyond the table must raise");
  let name = "test-symbol-unknown-name" in
  let s = Symbol.intern name in
  Alcotest.(check bool) "dynamic id lands beyond the seeded range" true
    (Symbol.to_int s >= Symbol.seeded_count);
  Alcotest.(check string) "round trip" name (Symbol.to_string s);
  Alcotest.(check bool) "stable on re-intern" true (Symbol.equal s (Symbol.intern name));
  Alcotest.(check bool) "of_int inverts to_int" true
    (Symbol.equal s (Symbol.of_int (Symbol.to_int s)));
  (* intern_sub agrees with intern on a shared buffer *)
  let buf = "xx" ^ name ^ "yy" in
  Alcotest.(check bool) "intern_sub agrees" true
    (Symbol.equal s (Symbol.intern_sub buf ~pos:2 ~len:(String.length name)))

(* Four domains intern the same 128 unseen names in four different
   orders.  Whatever ids the race hands out, every domain must agree on
   them, they must be distinct, and the reverse table must resolve each
   one from the joining domain. *)
let test_concurrent_interning () =
  let names = List.init 128 (Printf.sprintf "test-symbol-dyn-%d") in
  let shuffle seed l =
    let st = Random.State.make [| seed |] in
    List.map (fun x -> (Random.State.bits st, x)) l
    |> List.sort compare |> List.map snd
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.map
              (fun n -> (n, Symbol.to_int (Symbol.intern n)))
              (shuffle d names)))
  in
  let maps = List.map Domain.join domains in
  let reference = List.hd maps in
  List.iter
    (fun m ->
      List.iter
        (fun n -> Alcotest.(check int) n (List.assoc n reference) (List.assoc n m))
        names)
    (List.tl maps);
  let ids = List.map snd reference in
  Alcotest.(check int) "ids distinct" (List.length names)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (n, id) ->
      Alcotest.(check string) "reverse table" n (Symbol.to_string (Symbol.of_int id)))
    reference

(* Interning must be invisible in output bytes.  Parse a factor-0.01
   benchmark document, serialize and canonicalize it; then shift the
   dynamic id space by interning noise names and do it again — the
   bytes must not move.  (The "before interning" build serialized from
   plain strings; byte-stability under id-space perturbation is the
   same contract made checkable without a second build.) *)
let test_serialization_differential () =
  let doc = Xmark_xmlgen.Generator.to_string ~factor:0.01 () in
  let dom1 = Sax.parse_string doc in
  let out1 = Serialize.to_string dom1 in
  let canon1 = Canonical.of_node dom1 in
  List.iter
    (fun i -> ignore (Symbol.intern (Printf.sprintf "test-symbol-noise-%d" i)))
    (List.init 64 Fun.id);
  let dom2 = Sax.parse_string doc in
  Alcotest.(check bool) "serialization is byte-identical" true
    (String.equal out1 (Serialize.to_string dom2));
  Alcotest.(check bool) "canonical form is byte-identical" true
    (String.equal canon1 (Canonical.of_node dom2));
  (* serialize . parse is a fixpoint on bytes *)
  Alcotest.(check bool) "serialize/parse fixpoint" true
    (String.equal out1 (Serialize.to_string (Sax.parse_string out1)))

let () =
  Alcotest.run "symbol"
    [
      ( "seeding",
        [
          Alcotest.test_case "deterministic ids" `Quick test_seeded_ids_deterministic;
          Alcotest.test_case "matches DTD tables" `Quick
            test_seeded_vocabulary_matches_dtd;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "unknown-name fallback" `Quick test_unknown_name_fallback;
          Alcotest.test_case "4-domain interning" `Quick test_concurrent_interning;
        ] );
      ( "differential",
        [
          Alcotest.test_case "serialization unchanged" `Quick
            test_serialization_differential;
        ] );
    ]
