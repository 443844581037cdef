module Dom = Xmark_xml.Dom
module Canonical = Xmark_xml.Canonical
module Sax = Xmark_xml.Sax

type op = Run of int | Collect of string

let doc = {|document("auction.xml")|}

(* --- the broadcast side-queries for the join classes --------------------- *)

(* Q8/Q9: every person's id and name. *)
let persons_id_name =
  "for $p in " ^ doc
  ^ {|/site/people/person return <q i="{$p/@id}" n="{$p/name/text()}"/>|}

(* Q8: who bought each closed auction. *)
let closed_buyers =
  "for $t in " ^ doc
  ^ {|/site/closed_auctions/closed_auction return <b p="{$t/buyer/@person}"/>|}

(* Q9: buyer and item reference of each closed auction. *)
let closed_buyer_item =
  "for $t in " ^ doc
  ^ {|/site/closed_auctions/closed_auction
return <c b="{$t/buyer/@person}" r="{$t/itemref/@item}"/>|}

(* Q9: id and name of every item registered in Europe. *)
let europe_items =
  "for $t2 in " ^ doc
  ^ {|/site/regions/europe/item return <e i="{$t2/@id}" n="{$t2/name/text()}"/>|}

(* Q10: per person, the interest categories plus the fully constructed
   French-markup personne — evaluated shard-side so the construction
   semantics (fn:data, missing profile fields) stay the evaluator's. *)
let person_profiles =
  "for $t in " ^ doc
  ^ {|/site/people/person
return <pw>
  <ints> {for $in in $t/profile/interest return <ic c="{$in/@category}"/>} </ints>
  <personne>
    <statistiques>
      <sexe> {$t/profile/gender/text()} </sexe>
      <age> {$t/profile/age/text()} </age>
      <education> {$t/profile/education/text()} </education>
      <revenu> {fn:data($t/profile/@income)} </revenu>
    </statistiques>
    <coordonnees>
      <nom> {$t/name/text()} </nom>
      <rue> {$t/address/street/text()} </rue>
      <ville> {$t/address/city/text()} </ville>
      <pays> {$t/address/country/text()} </pays>
      <reseau>
        <courrier> {$t/emailaddress/text()} </courrier>
        <pagePerso> {$t/homepage/text()} </pagePerso>
      </reseau>
    </coordonnees>
    <cartePaiement> {$t/creditcard/text()} </cartePaiement>
  </personne>
</pw>|}

(* Q11/Q12: every person's name and raw income attribute. *)
let persons_name_income =
  "for $p in " ^ doc
  ^ {|/site/people/person return <q n="{$p/name/text()}" m="{$p/profile/@income}"/>|}

(* Q11/Q12: the initial price of every open auction. *)
let open_initials =
  "for $i in " ^ doc
  ^ {|/site/open_auctions/open_auction/initial return <v x="{$i/text()}"/>|}

let ops = function
  | 8 -> [ Collect persons_id_name; Collect closed_buyers ]
  | 9 -> [ Collect persons_id_name; Collect closed_buyer_item; Collect europe_items ]
  | 10 -> [ Collect person_profiles ]
  | 11 | 12 -> [ Collect persons_name_income; Collect open_initials ]
  | n when n >= 1 && n <= 20 -> [ Run n ]
  | n -> invalid_arg (Printf.sprintf "Merge.ops: no query Q%d" n)

let class_name = function
  | 5 | 6 | 7 -> "sum"
  | 8 | 9 | 10 | 11 | 12 -> "join"
  | 19 -> "ordered-merge"
  | 20 -> "sum-parts"
  | n when n >= 1 && n <= 20 -> "concat"
  | n -> invalid_arg (Printf.sprintf "Merge.class_name: no query Q%d" n)

(* --- evaluator-exact scalar semantics ------------------------------------ *)

(* Number rendering, identical to Eval's [string_value_of (Num f)]. *)
let fmt_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

(* Untyped-to-number coercion, identical to Eval's [to_number_opt]. *)
let to_number s = float_of_string_opt (String.trim s)

(* --- carrier parsing ----------------------------------------------------- *)

(* Canonical forms are well-formed XML and canonicalization is idempotent
   through a parse, so partial items round-trip exactly. *)
let parse_item s =
  try Sax.parse_string s
  with Sax.Parse_error _ ->
    invalid_arg (Printf.sprintf "Merge.gather: unparsable partial item %S" s)

let attr_exn node name =
  match Dom.attr node name with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Merge.gather: carrier <%s> missing @%s" (Dom.name node) name)

(* --- per-class gathers --------------------------------------------------- *)

let nth_op parts q i =
  match List.nth_opt parts i with
  | Some shards -> shards
  | None ->
      invalid_arg
        (Printf.sprintf "Merge.gather: Q%d expects %d ops, got %d" q
           (List.length (ops q)) (List.length parts))

let op_items parts q i = List.concat (nth_op parts q i)

let concat_gather parts q =
  let items = op_items parts q 0 in
  (List.length items, String.concat "\n" items)

let sum_gather parts q =
  let total =
    List.fold_left
      (fun acc item ->
        match to_number item with
        | Some f -> acc +. f
        | None ->
            invalid_arg
              (Printf.sprintf "Merge.gather: Q%d non-numeric partial %S" q item))
      0.0 (op_items parts q 0)
  in
  (1, fmt_num total)

(* Q20: sum the four group cardinalities of the per-shard <result> trees. *)
let q20_fields = [ "preferred"; "standard"; "challenge"; "na" ]

let sum_parts_gather parts q =
  let totals = Array.make (List.length q20_fields) 0.0 in
  List.iter
    (fun item ->
      let root = parse_item item in
      List.iteri
        (fun i field ->
          match Dom.find_element root field with
          | Some el -> (
              let v = Dom.string_value el in
              match to_number v with
              | Some f -> totals.(i) <- totals.(i) +. f
              | None ->
                  invalid_arg
                    (Printf.sprintf "Merge.gather: Q%d field %s non-numeric %S" q
                       field v))
          | None ->
              invalid_arg
                (Printf.sprintf "Merge.gather: Q%d partial missing <%s>" q field))
        q20_fields)
    (op_items parts q 0);
  let node =
    Dom.element "result"
      ~children:
        (List.mapi
           (fun i field ->
             Dom.element field ~children:[ Dom.text (fmt_num totals.(i)) ])
           q20_fields)
  in
  (1, Canonical.of_node node)

(* Q19: each shard's slice is stably sorted by location; a k-way merge
   that breaks ties toward the earlier shard reproduces the global
   stable sort, because equal-key items of an earlier shard precede
   equal-key items of a later one in document order.  Keys compare as
   Eval does: String.compare over the location's string value, an
   absent location sorting least (""). *)
let ordered_merge_gather parts q =
  let shards =
    List.map
      (fun items ->
        Array.of_list
          (List.map (fun s -> (Dom.string_value (parse_item s), s)) items))
      (nth_op parts q 0)
  in
  let shards = Array.of_list shards in
  let pos = Array.make (Array.length shards) 0 in
  let out = Buffer.create 4096 in
  let count = ref 0 in
  let rec next () =
    let best = ref (-1) in
    Array.iteri
      (fun i arr ->
        if pos.(i) < Array.length arr then
          match !best with
          | -1 -> best := i
          | b ->
              let kb, _ = shards.(b).(pos.(b)) and ki, _ = arr.(pos.(i)) in
              (* strict <: ties stay with the earlier shard *)
              if String.compare ki kb < 0 then best := i)
      shards;
    match !best with
    | -1 -> ()
    | i ->
        let _, item = shards.(i).(pos.(i)) in
        pos.(i) <- pos.(i) + 1;
        if !count > 0 then Buffer.add_char out '\n';
        Buffer.add_string out item;
        incr count;
        next ()
  in
  next ();
  (!count, Buffer.contents out)

(* --- join gathers -------------------------------------------------------- *)

let canonical_of_list nodes = (List.length nodes, Canonical.of_nodes nodes)

(* Q8: per person in global order, the number of closed auctions whose
   buyer is that person. *)
let q8_gather parts q =
  let persons =
    List.map
      (fun s ->
        let n = parse_item s in
        (attr_exn n "i", attr_exn n "n"))
      (op_items parts q 0)
  in
  let bought = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let p = attr_exn (parse_item s) "p" in
      Hashtbl.replace bought p
        (1 + Option.value ~default:0 (Hashtbl.find_opt bought p)))
    (op_items parts q 1);
  canonical_of_list
    (List.map
       (fun (id, name) ->
         let n = Option.value ~default:0 (Hashtbl.find_opt bought id) in
         Dom.element "item"
           ~attrs:[ ("person", name) ]
           ~children:[ Dom.text (fmt_num (float_of_int n)) ])
       persons)

(* Q9: per person in global order, one <item> child per auction they
   bought (in closed-auction order), holding the item's name when the
   item is registered in Europe and empty otherwise. *)
let q9_gather parts q =
  let persons =
    List.map
      (fun s ->
        let n = parse_item s in
        (attr_exn n "i", attr_exn n "n"))
      (op_items parts q 0)
  in
  let auctions =
    List.map
      (fun s ->
        let n = parse_item s in
        (attr_exn n "b", attr_exn n "r"))
      (op_items parts q 1)
  in
  let europe = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let n = parse_item s in
      (* item ids are unique; keep the first defensively *)
      let id = attr_exn n "i" in
      if not (Hashtbl.mem europe id) then Hashtbl.add europe id (attr_exn n "n"))
    (op_items parts q 2);
  (* group auctions by buyer, preserving order *)
  let by_buyer = Hashtbl.create 256 in
  List.iter
    (fun (b, r) ->
      Hashtbl.replace by_buyer b
        (r :: Option.value ~default:[] (Hashtbl.find_opt by_buyer b)))
    auctions;
  canonical_of_list
    (List.map
       (fun (id, name) ->
         let refs =
           List.rev (Option.value ~default:[] (Hashtbl.find_opt by_buyer id))
         in
         let items =
           List.map
             (fun r ->
               let children =
                 match Hashtbl.find_opt europe r with
                 | Some n -> [ Dom.text n ]
                 | None -> []
               in
               Dom.element "item" ~children)
             refs
         in
         Dom.element "person" ~attrs:[ ("name", name) ] ~children:items)
       persons)

(* Q10: distinct interest categories in first-appearance order (global
   person order, interest order within a person); per category, the
   shard-constructed personne of every member person, reparsed from its
   canonical form (canonicalization is idempotent, so reserialization is
   byte-identical). *)
let q10_gather parts q =
  let persons =
    List.map
      (fun s ->
        let n = parse_item s in
        let ints =
          match Dom.find_element n "ints" with
          | Some el ->
              List.filter_map
                (fun c -> if Dom.is_element c then Dom.attr c "c" else None)
                (Dom.children el)
          | None -> []
        in
        let personne =
          match Dom.find_element n "personne" with
          | Some el -> el
          | None -> invalid_arg "Merge.gather: Q10 carrier missing <personne>"
        in
        (ints, personne))
      (op_items parts q 0)
  in
  let seen = Hashtbl.create 64 in
  let categories = ref [] in
  List.iter
    (fun (ints, _) ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem seen c) then begin
            Hashtbl.add seen c ();
            categories := c :: !categories
          end)
        ints)
    persons;
  canonical_of_list
    (List.map
       (fun cat ->
         let members =
           List.filter_map
             (fun (ints, personne) ->
               if List.mem cat ints then Some (Dom.deep_copy personne) else None)
             persons
         in
         Dom.element "categorie"
           ~children:
             (Dom.element "id" ~children:[ Dom.text cat ] :: members))
       (List.rev !categories))

(* Q11/Q12: per person, how many open-auction initial prices satisfy
   income > 5000 * initial.  Comparison semantics mirror Eval's general
   comparison: both sides coerce to numbers, unparsable or absent values
   make the predicate false (OCaml float > is already NaN-false). *)
let q11_q12_gather parts q =
  let persons =
    List.map
      (fun s ->
        let n = parse_item s in
        (attr_exn n "n", to_number (attr_exn n "m"), attr_exn n "m"))
      (op_items parts q 0)
  in
  let initials =
    List.filter_map
      (fun s -> to_number (attr_exn (parse_item s) "x"))
      (op_items parts q 1)
  in
  let count_for income =
    List.length (List.filter (fun x -> income > 5000.0 *. x) initials)
  in
  let nodes =
    List.filter_map
      (fun (name, income, raw_income) ->
        match q with
        | 11 ->
            let n = match income with Some i -> count_for i | None -> 0 in
            Some
              (Dom.element "items"
                 ~attrs:[ ("name", name) ]
                 ~children:[ Dom.text (fmt_num (float_of_int n)) ])
        | _ -> (
            match income with
            | Some i when i > 50000.0 ->
                Some
                  (Dom.element "items"
                     ~attrs:[ ("person", raw_income) ]
                     ~children:[ Dom.text (fmt_num (float_of_int (count_for i))) ])
            | _ -> None))
      persons
  in
  canonical_of_list nodes

let gather q parts =
  let expect = List.length (ops q) in
  if List.length parts <> expect then
    invalid_arg
      (Printf.sprintf "Merge.gather: Q%d expects %d ops, got %d" q expect
         (List.length parts));
  match q with
  | 5 | 6 | 7 -> sum_gather parts q
  | 8 -> q8_gather parts q
  | 9 -> q9_gather parts q
  | 10 -> q10_gather parts q
  | 11 | 12 -> q11_q12_gather parts q
  | 19 -> ordered_merge_gather parts q
  | 20 -> sum_parts_gather parts q
  | _ -> concat_gather parts q
