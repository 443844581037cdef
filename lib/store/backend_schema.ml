module R = Xmark_relational
module Dom = Xmark_xml.Dom
module Serialize = Xmark_xml.Serialize

type t = {
  cat : R.Catalog.t;
  ordered : (string * string * R.Btree.t) list;
      (* numeric B+-tree indexes for range predicates (Q5's price, Q12's
         income); keys are the runtime-cast numeric values *)
}

let sv = Dom.string_value

let child_el n tag = List.find_opt (fun c -> Dom.name c = tag) (Dom.children n)

let children_el n tag = List.filter (fun c -> Dom.name c = tag) (Dom.children n)

let leaf n tag = Option.map sv (child_el n tag)

let opt = function Some s -> R.Value.Str s | None -> R.Value.Null

let req n tag =
  match leaf n tag with
  | Some s -> R.Value.Str s
  | None -> R.Value.Null

let attr_ref n tag key =
  match child_el n tag with
  | Some c -> opt (Dom.attr c key)
  | None -> R.Value.Null

let serialized n tag =
  match child_el n tag with
  | Some c -> R.Value.Str (Serialize.to_string c)
  | None -> R.Value.Null

let text_of n tag =
  match child_el n tag with Some c -> R.Value.Str (sv c) | None -> R.Value.Null

(* The ten relations in catalog registration order — the order a fresh
   load registers them, and the order a snapshot stores and restores. *)
let table_order =
  [ "person"; "interest"; "watch"; "item"; "incategory"; "open_auction"; "bidder";
    "closed_auction"; "category"; "edge" ]

(* Seal, register and index a complete set of the ten relations — the
   shared tail of a DOM load and a snapshot restore. *)
let finish all_tables =
  let find name = List.find (fun t -> R.Table.name t = name) all_tables in
  let person = find "person" and item = find "item" in
  let open_auction = find "open_auction" and bidder = find "bidder" in
  let interest = find "interest" and incategory = find "incategory" in
  let watch = find "watch" and closed_auction = find "closed_auction" in
  List.iter R.Table.seal all_tables;
  let cat = R.Catalog.create () in
  List.iter (R.Catalog.register cat) all_tables;
  List.iter
    (fun (table, column) ->
      R.Catalog.register_index cat ~table:(R.Table.name table) ~column
        (R.Index.build table column))
    [
      (person, "id"); (item, "id"); (open_auction, "id"); (bidder, "auction_idx");
      (interest, "person_idx"); (incategory, "item_idx"); (watch, "person_idx");
      (closed_auction, "buyer"); (closed_auction, "itemref");
    ];
  let numeric_btree (table, column) =
    let tree = R.Btree.create () in
    let ci = R.Table.col_index table column in
    R.Table.iter
      (fun row_id row ->
        match row.(ci) with
        | R.Value.Null -> ()
        | v -> R.Btree.insert tree (R.Value.Num (R.Value.to_float v)) row_id)
      table;
    (R.Table.name table, column, tree)
  in
  { cat; ordered = List.map numeric_btree [ (closed_auction, "price"); (person, "income") ] }

let load_dom root =
  let person =
    R.Table.create ~name:"person"
      ~cols:
        [
          "idx"; "id"; "name"; "emailaddress"; "phone"; "street"; "city"; "country";
          "province"; "zipcode"; "homepage"; "creditcard"; "has_profile"; "income";
          "education"; "gender"; "business"; "age";
        ]
  in
  let interest = R.Table.create ~name:"interest" ~cols:[ "person_idx"; "category" ] in
  let watch = R.Table.create ~name:"watch" ~cols:[ "person_idx"; "open_auction" ] in
  let item =
    R.Table.create ~name:"item"
      ~cols:
        [
          "idx"; "id"; "region"; "location"; "quantity"; "name"; "payment"; "shipping";
          "featured"; "desc_xml"; "desc_text";
        ]
  in
  let incategory = R.Table.create ~name:"incategory" ~cols:[ "item_idx"; "category" ] in
  let open_auction =
    R.Table.create ~name:"open_auction"
      ~cols:
        [
          "idx"; "id"; "initial"; "reserve"; "current"; "privacy"; "itemref"; "seller";
          "quantity"; "atype"; "start_date"; "end_date"; "ann_author"; "ann_xml"; "ann_text";
        ]
  in
  let bidder =
    R.Table.create ~name:"bidder"
      ~cols:[ "auction_idx"; "pos"; "bdate"; "btime"; "personref"; "increase" ]
  in
  let closed_auction =
    R.Table.create ~name:"closed_auction"
      ~cols:
        [
          "idx"; "seller"; "buyer"; "itemref"; "price"; "cdate"; "quantity"; "atype";
          "ann_author"; "ann_xml"; "ann_text";
        ]
  in
  let category =
    R.Table.create ~name:"category" ~cols:[ "idx"; "id"; "name"; "desc_xml"; "desc_text" ]
  in
  let edge = R.Table.create ~name:"edge" ~cols:[ "efrom"; "eto" ] in

  let vi i = R.Value.Int i in
  let annotation_fields n =
    match child_el n "annotation" with
    | None -> (R.Value.Null, R.Value.Null, R.Value.Null)
    | Some a ->
        ( attr_ref a "author" "person",
          R.Value.Str (Serialize.to_string a),
          R.Value.Str (sv a) )
  in

  let load_regions () =
  let item_idx = ref 0 in
  (match child_el root "regions" with
  | None -> ()
  | Some regions ->
      List.iter
        (fun region ->
          let rtag = Dom.name region in
          List.iter
            (fun it ->
              let idx = !item_idx in
              incr item_idx;
              R.Table.append item
                [|
                  vi idx;
                  opt (Dom.attr it "id");
                  R.Value.Str rtag;
                  req it "location";
                  req it "quantity";
                  req it "name";
                  req it "payment";
                  req it "shipping";
                  opt (Dom.attr it "featured");
                  (match serialized it "description" with v -> v);
                  text_of it "description";
                |];
              List.iter
                (fun ic ->
                  R.Table.append incategory [| vi idx; opt (Dom.attr ic "category") |])
                (children_el it "incategory"))
            (children_el region "item"))
        (Dom.children regions))
  in

  let load_categories () =
  (match child_el root "categories" with
  | None -> ()
  | Some cats ->
      List.iteri
        (fun idx c ->
          R.Table.append category
            [|
              vi idx; opt (Dom.attr c "id"); req c "name"; serialized c "description";
              text_of c "description";
            |])
        (children_el cats "category"))
  in

  let load_catgraph () =
  (match child_el root "catgraph" with
  | None -> ()
  | Some g ->
      List.iter
        (fun e ->
          R.Table.append edge [| opt (Dom.attr e "from"); opt (Dom.attr e "to") |])
        (children_el g "edge"))
  in

  let load_people () =
  (match child_el root "people" with
  | None -> ()
  | Some people ->
      List.iteri
        (fun idx pn ->
          let address = child_el pn "address" in
          let profile = child_el pn "profile" in
          let addr_leaf tag =
            match address with Some a -> opt (leaf a tag) | None -> R.Value.Null
          in
          let prof_leaf tag =
            match profile with Some pr -> opt (leaf pr tag) | None -> R.Value.Null
          in
          R.Table.append person
            [|
              vi idx;
              opt (Dom.attr pn "id");
              req pn "name";
              req pn "emailaddress";
              opt (leaf pn "phone");
              addr_leaf "street";
              addr_leaf "city";
              addr_leaf "country";
              addr_leaf "province";
              addr_leaf "zipcode";
              opt (leaf pn "homepage");
              opt (leaf pn "creditcard");
              vi (if profile = None then 0 else 1);
              (match profile with
              | Some pr -> opt (Dom.attr pr "income")
              | None -> R.Value.Null);
              prof_leaf "education";
              prof_leaf "gender";
              prof_leaf "business";
              prof_leaf "age";
            |];
          (match profile with
          | None -> ()
          | Some pr ->
              List.iter
                (fun i -> R.Table.append interest [| vi idx; opt (Dom.attr i "category") |])
                (children_el pr "interest"));
          match child_el pn "watches" with
          | None -> ()
          | Some ws ->
              List.iter
                (fun w ->
                  R.Table.append watch [| vi idx; opt (Dom.attr w "open_auction") |])
                (children_el ws "watch"))
        (children_el people "person"))
  in

  let load_open_auctions () =
  (match child_el root "open_auctions" with
  | None -> ()
  | Some oas ->
      List.iteri
        (fun idx oa ->
          let interval = child_el oa "interval" in
          let interval_leaf tag =
            match interval with Some iv -> opt (leaf iv tag) | None -> R.Value.Null
          in
          let ann_author, ann_xml, ann_text = annotation_fields oa in
          R.Table.append open_auction
            [|
              vi idx;
              opt (Dom.attr oa "id");
              req oa "initial";
              opt (leaf oa "reserve");
              req oa "current";
              opt (leaf oa "privacy");
              attr_ref oa "itemref" "item";
              attr_ref oa "seller" "person";
              req oa "quantity";
              req oa "type";
              interval_leaf "start";
              interval_leaf "end";
              ann_author;
              ann_xml;
              ann_text;
            |];
          List.iteri
            (fun pos b ->
              R.Table.append bidder
                [|
                  vi idx;
                  vi (pos + 1);
                  req b "date";
                  req b "time";
                  attr_ref b "personref" "person";
                  req b "increase";
                |])
            (children_el oa "bidder"))
        (children_el oas "open_auction"))
  in

  let load_closed_auctions () =
  (match child_el root "closed_auctions" with
  | None -> ()
  | Some cas ->
      List.iteri
        (fun idx ca ->
          let ann_author, ann_xml, ann_text = annotation_fields ca in
          R.Table.append closed_auction
            [|
              vi idx;
              attr_ref ca "seller" "person";
              attr_ref ca "buyer" "person";
              attr_ref ca "itemref" "item";
              req ca "price";
              req ca "date";
              req ca "quantity";
              req ca "type";
              ann_author;
              ann_xml;
              ann_text;
            |])
        (children_el cas "closed_auction"))
  in

  load_regions ();
  load_categories ();
  load_catgraph ();
  load_people ();
  load_open_auctions ();
  load_closed_auctions ();

  let all_tables =
    [ person; interest; watch; item; incategory; open_auction; bidder; closed_auction;
      category; edge ]
  in
  finish all_tables

let load_string s = load_dom (Xmark_xml.Sax.parse_string s)

(* --- snapshot image ------------------------------------------------------- *)

let snapshot_tables t = R.Catalog.tables t.cat

let of_tables tables =
  if List.map R.Table.name tables <> table_order then
    Xmark_persist.Page_io.corrupt
      "System C snapshot: unexpected relation set [%s]"
      (String.concat "; " (List.map R.Table.name tables));
  finish tables

let catalog t = t.cat

let ordered_index t ~table ~column =
  List.find_map
    (fun (tn, cn, tree) ->
      if String.equal tn table && String.equal cn column then Some tree else None)
    t.ordered

let table t name =
  match R.Catalog.lookup t.cat name with Some tbl -> tbl | None -> raise Not_found

let index t ~table ~column =
  match R.Catalog.lookup_index t.cat ~table ~column with
  | Some idx -> idx
  | None -> raise Not_found

let scan_blocks tbl f init =
  if R.Vec_ops.is_enabled () then
    R.Vec_ops.fold_rows_blocked ~poll:Xmark_xquery.Cancel.poll
      ~row_count:(R.Table.row_count tbl)
      (fun acc i -> f acc i (R.Table.get tbl i))
      init
  else R.Table.fold (fun acc i row -> f acc i row) init tbl

let size_bytes t = R.Catalog.byte_size t.cat

let row_total t =
  List.fold_left (fun acc tbl -> acc + R.Table.row_count tbl) 0 (R.Catalog.tables t.cat)

let description _ = "relational, DTD-derived inlined schema (System C)"
