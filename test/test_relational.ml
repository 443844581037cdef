module R = Xmark_relational
open R

let v_i i = Value.Int i
let v_s s = Value.Str s
let v_f f = Value.Num f

let mk_table name cols rows =
  let t = Table.create ~name ~cols in
  List.iter (fun r -> Table.append t (Array.of_list r)) rows;
  t

(* --- values ---------------------------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "int vs num merge" true (Value.compare (v_i 2) (v_f 2.0) = 0);
  Alcotest.(check bool) "num order" true (Value.compare (v_f 1.0) (v_f 2.0) < 0);
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (v_i 0) < 0);
  Alcotest.(check bool) "str after num" true (Value.compare (v_i 5) (v_s "a") < 0);
  Alcotest.(check bool) "str order" true (Value.compare (v_s "a") (v_s "b") < 0)

let test_value_cast () =
  Alcotest.(check (float 0.001)) "str cast" 42.5 (Value.to_float (v_s " 42.5 "));
  Alcotest.(check bool) "bad cast is nan" true (Float.is_nan (Value.to_float (v_s "oops")));
  (* XML Schema's xs:double lexical space, not OCaml's *)
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " is nan") true (Float.is_nan (Value.to_float (v_s s))))
    [ "1_000"; "0x10"; "inf" ];
  List.iter
    (fun (s, f) -> Alcotest.(check (float 0.0)) s f (Value.to_float (v_s s)))
    [ ("INF", Float.infinity); (" 12 ", 12.0); ("1.", 1.0); (".5e1", 5.0) ];
  Alcotest.(check bool) "null is nan" true (Float.is_nan (Value.to_float Value.Null))

let test_value_to_string () =
  Alcotest.(check string) "int" "7" (Value.to_string (v_i 7));
  Alcotest.(check string) "whole float" "40" (Value.to_string (v_f 40.0));
  Alcotest.(check string) "null empty" "" (Value.to_string Value.Null)

(* --- tables ---------------------------------------------------------------- *)

let test_table_basics () =
  let t = mk_table "t" [ "a"; "b" ] [ [ v_i 1; v_s "x" ]; [ v_i 2; v_s "y" ] ] in
  Alcotest.(check int) "count" 2 (Table.row_count t);
  Alcotest.(check int) "col index" 1 (Table.col_index t "b");
  Alcotest.(check bool) "get" true ((Table.get t 1).(1) = v_s "y");
  (match Table.col_index t "zz" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown column");
  match Table.append t [| v_i 1 |] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "arity mismatch"

let test_table_append_after_seal () =
  let t = mk_table "t" [ "a" ] [ [ v_i 1 ] ] in
  ignore (Table.rows t);
  Table.append t [| v_i 2 |];
  Alcotest.(check int) "reseal" 2 (Array.length (Table.rows t));
  Alcotest.(check bool) "order kept" true ((Table.get t 1).(0) = v_i 2)

let test_table_fold_order () =
  let t = mk_table "t" [ "a" ] [ [ v_i 3 ]; [ v_i 1 ]; [ v_i 2 ] ] in
  let order = Table.fold (fun acc _ r -> r.(0) :: acc) [] t in
  Alcotest.(check bool) "load order" true (List.rev order = [ v_i 3; v_i 1; v_i 2 ])

(* --- indexes ---------------------------------------------------------------- *)

let test_index_lookup () =
  let t =
    mk_table "t" [ "k"; "v" ]
      [ [ v_s "a"; v_i 1 ]; [ v_s "b"; v_i 2 ]; [ v_s "a"; v_i 3 ] ]
  in
  let idx = Index.build t "k" in
  Alcotest.(check (list int)) "rows for a" [ 0; 2 ] (Index.lookup idx (v_s "a"));
  Alcotest.(check (list int)) "rows for b" [ 1 ] (Index.lookup idx (v_s "b"));
  Alcotest.(check (list int)) "missing" [] (Index.lookup idx (v_s "zz"));
  Alcotest.(check (option int)) "unique" (Some 0) (Index.unique idx (v_s "a"));
  Alcotest.(check int) "distinct keys" 2 (Index.size idx)

let test_index_keyed () =
  let t = mk_table "t" [ "x" ] [ [ v_i 10 ]; [ v_i 11 ]; [ v_i 12 ] ] in
  let idx = Index.build_keyed t (fun r -> v_i (Value.to_float r.(0) |> int_of_float |> fun x -> x mod 2)) in
  Alcotest.(check (list int)) "evens" [ 0; 2 ] (Index.lookup idx (v_i 0))

(* --- fixtures ------------------------------------------------------------- *)

let people =
  mk_table "people" [ "id"; "name"; "age" ]
    [
      [ v_i 1; v_s "ann"; v_i 30 ];
      [ v_i 2; v_s "bob"; v_i 20 ];
      [ v_i 3; v_s "cat"; v_i 40 ];
      [ v_i 4; v_s "dan"; v_i 20 ];
    ]

let orders =
  mk_table "orders" [ "person"; "amount" ]
    [
      [ v_i 1; v_f 10.0 ];
      [ v_i 1; v_f 20.0 ];
      [ v_i 3; v_f 5.0 ];
      [ v_i 9; v_f 99.0 ];
    ]

(* --- catalog ---------------------------------------------------------------- *)

let test_catalog () =
  let cat = Catalog.create () in
  Catalog.register cat people;
  Catalog.register cat orders;
  Alcotest.(check int) "two tables" 2 (Catalog.table_count cat);
  (match Catalog.register cat people with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate registration");
  Catalog.reset_counters cat;
  Alcotest.(check bool) "lookup hit" true (Catalog.lookup cat "orders" <> None);
  Alcotest.(check int) "accesses = entries scanned" 2 (Catalog.metadata_accesses cat);
  Alcotest.(check bool) "lookup miss" true (Catalog.lookup cat "zz" = None);
  Alcotest.(check int) "miss scans all" 4 (Catalog.metadata_accesses cat);
  Alcotest.(check bool) "byte size positive" true (Catalog.byte_size cat > 0)

(* --- B+-tree ordered index ---------------------------------------------------- *)

let test_btree_basics () =
  let t = Btree.create ~branching:4 () in
  List.iteri (fun i k -> Btree.insert t (v_i k) i) [ 5; 3; 9; 1; 7; 3 ];
  Alcotest.(check int) "cardinality" 6 (Btree.cardinality t);
  Alcotest.(check (list int)) "lookup dup key keeps order" [ 1; 5 ] (Btree.lookup t (v_i 3));
  Alcotest.(check (list int)) "lookup miss" [] (Btree.lookup t (v_i 4));
  Alcotest.(check bool) "min" true (Btree.min_key t = Some (v_i 1));
  Alcotest.(check bool) "max" true (Btree.max_key t = Some (v_i 9))

let test_btree_range () =
  let t = Btree.create ~branching:4 () in
  List.iteri (fun i k -> Btree.insert t (v_i k) i) [ 10; 20; 30; 40; 50 ];
  Alcotest.(check (list int)) "closed range" [ 1; 2; 3 ]
    (Btree.range ~lower:(v_i 20, true) ~upper:(v_i 40, true) t);
  Alcotest.(check (list int)) "open range" [ 2 ]
    (Btree.range ~lower:(v_i 20, false) ~upper:(v_i 40, false) t);
  Alcotest.(check (list int)) "no lower" [ 0; 1 ] (Btree.range ~upper:(v_i 20, true) t);
  Alcotest.(check (list int)) "no upper" [ 3; 4 ] (Btree.range ~lower:(v_i 40, true) t);
  Alcotest.(check (list int)) "unbounded = all" [ 0; 1; 2; 3; 4 ] (Btree.range t)

let test_btree_build_and_iter () =
  let t = Btree.build ~branching:4 people "age" in
  let collected = ref [] in
  Btree.iter (fun k v -> collected := (Value.to_float k, v) :: !collected) t;
  let collected = List.rev !collected in
  Alcotest.(check int) "all rows" 4 (List.length collected);
  let keys = List.map fst collected in
  Alcotest.(check bool) "key order" true (List.sort compare keys = keys)

module Prng = Xmark_prng.Prng
module Property = Xmark_check.Property

let property name gen to_bytes prop =
  { Property.name; gen; shrink = (fun _ -> Seq.empty);
    prop = (fun x -> if prop x then Ok "pass" else Error "violated"); to_bytes; ext = "txt" }

let prop_btree_matches_model =
  property "btree lookup/range agree with a sorted-list model"
    (fun g -> List.init (Prng.int_in g 0 300) (fun _ -> Prng.int g 61))
    (fun keys -> String.concat " " (List.map string_of_int keys))
    (fun keys ->
      let t = Btree.create ~branching:4 () in
      List.iteri (fun i k -> Btree.insert t (v_i k) i) keys;
      let model = List.mapi (fun i k -> (k, i)) keys in
      (* lookups *)
      List.for_all
        (fun probe ->
          let expected = List.filter_map (fun (k, i) -> if k = probe then Some i else None) model in
          Btree.lookup t (v_i probe) = expected)
        [ 0; 7; 30; 60 ]
      && (* range [10, 40) in key order, stable within keys *)
      (let expected =
         List.stable_sort
           (fun (k1, _) (k2, _) -> compare k1 k2)
           (List.filter (fun (k, _) -> k >= 10 && k < 40) model)
         |> List.map snd
       in
       Btree.range ~lower:(v_i 10, true) ~upper:(v_i 40, false) t = expected)
      && Btree.cardinality t = List.length keys)

let prop_btree_depth_logarithmic =
  property "btree depth stays logarithmic" (fun g -> Prng.int_in g 100 2000) string_of_int
    (fun n ->
      let t = Btree.create ~branching:8 () in
      for i = 0 to n - 1 do
        Btree.insert t (v_i i) i
      done;
      (* height of an 8-way tree over n distinct keys *)
      Btree.depth t <= 2 + int_of_float (log (float_of_int n) /. log 4.0))

let case ~count ~seed p = Alcotest.test_case p.Property.name `Slow (Property.check ~count ~seed p)

let () =
  Alcotest.run "relational"
    [
      ( "values",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "cast" `Quick test_value_cast;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
        ] );
      ( "tables",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "append after seal" `Quick test_table_append_after_seal;
          Alcotest.test_case "fold order" `Quick test_table_fold_order;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          Alcotest.test_case "keyed" `Quick test_index_keyed;
        ] );
      ("catalog", [ Alcotest.test_case "catalog" `Quick test_catalog ]);
      ( "btree",
        [
          Alcotest.test_case "basics" `Quick test_btree_basics;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "build and iter" `Quick test_btree_build_and_iter;
        ] );
      ( "properties",
        [ case ~count:150 ~seed:41L prop_btree_matches_model;
          case ~count:20 ~seed:42L prop_btree_depth_logarithmic ] );
    ]
