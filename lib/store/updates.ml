module Dom = Xmark_xml.Dom

type fault =
  | Unknown_auction of string
  | Unknown_person of string
  | Auction_closed of string
  | No_bids of string
  | Missing_section of string
  | Invalid of string

exception Update_error of fault

let fault_to_string = function
  | Unknown_auction id -> Printf.sprintf "no such open auction %s" id
  | Unknown_person id -> Printf.sprintf "no such person %s" id
  | Auction_closed id -> Printf.sprintf "auction %s is already closed" id
  | No_bids id -> Printf.sprintf "auction %s has no bids; cannot close" id
  | Missing_section tag -> Printf.sprintf "document has no <%s> section" tag
  | Invalid msg -> msg

let fail f = raise (Update_error f)
let err fmt = Printf.ksprintf (fun s -> fail (Invalid s)) fmt

module MM = Backend_mainmem

type session = {
  level : MM.level;
  mutable root : Dom.node;  (* current version; no version is ever mutated *)
  mutable published : MM.t option;
      (* store of the last published version; [None]: the next store is
         a full build (fresh session, or a relabel since) *)
  dirty : (int, MM.change) Hashtbl.t;  (* net changes since [published], by key *)
  ids : (string, Dom.node) Hashtbl.t;  (* id -> its element in [root] *)
  mutable person_counter : int;
  closed_ids : (string, unit) Hashtbl.t;
      (* ids moved to closed_auctions this session; closed_auction elements
         carry no id attribute, so the distinction between "never existed"
         and "was closed" needs remembering *)
}

let child_el n tag = List.find_opt (fun c -> Dom.name c = tag) (Dom.children n)

let require_section root tag =
  match child_el root tag with
  | Some s -> s
  | None -> fail (Missing_section tag)

let index_ids ids root =
  Hashtbl.reset ids;
  Dom.iter (fun n -> Option.iter (fun id -> Hashtbl.replace ids id n) (Dom.attr n "id")) root

let max_person_suffix ids =
  Hashtbl.fold
    (fun id n best ->
      if Dom.name n = "person" && String.length id > 6 && String.sub id 0 6 = "person" then
        match int_of_string_opt (String.sub id 6 (String.length id - 6)) with
        | Some k -> max best k
        | None -> best
      else best)
    ids (-1)

let open_session ?(level = `Full) root =
  if Dom.name root <> "site" then err "not a benchmark document (root is <%s>)" (Dom.name root);
  if root.Dom.order < 0 then ignore (Dom.index root);
  let ids = Hashtbl.create 4096 in
  index_ids ids root;
  {
    level;
    root;
    published = None;
    dirty = Hashtbl.create 64;
    ids;
    person_counter = max_person_suffix ids;
    closed_ids = Hashtbl.create 64;
  }

let of_string ?level s = open_session ?level (Xmark_xml.Sax.parse_string s)
let root t = t.root
let level t = t.level

let store t =
  let s =
    match t.published with
    | None -> MM.create ~level:t.level t.root
    | Some s when Hashtbl.length t.dirty = 0 -> s
    | Some s ->
        let changes = Hashtbl.fold (fun _ c acc -> c :: acc) t.dirty [] in
        Xmark_stats.incr
          ~by:(List.length (List.filter (fun c -> Option.is_some c.MM.after) changes))
          "publish_nodes_built";
        MM.patch s ~root:t.root changes
  in
  t.published <- Some s;
  Hashtbl.reset t.dirty;
  s

let pending t = Option.is_none t.published || Hashtbl.length t.dirty > 0

let find_by_id t id = Hashtbl.find_opt t.ids id

(* --- persistent versions ------------------------------------------------

   An update never mutates a node the current root reaches.  It builds
   the touched entity's replacement, then path-copies the spine above it
   ([rebuild]); every other subtree is shared with the previous version.
   Copies keep the key of the node they replace; fresh subtrees take
   consecutive keys from the free range after their predecessor
   ([gap]).  When that range is too small the update relabels instead:
   the new version is deep-copied and fully reindexed. *)

(* Ancestors of the node keyed [k], innermost first, found by descending
   the subtree intervals from the root. *)
let ancestors root k =
  let rec go n acc =
    if n.Dom.order = k then acc
    else
      match List.find_opt (fun c -> c.Dom.order <= k && k < c.Dom.hi) (Dom.children n) with
      | Some c -> go c (n :: acc)
      | None -> invalid_arg "Updates.ancestors: key not in tree"
  in
  go root []

let next_sibling parent n =
  let rec go = function
    | c :: (s :: _ as rest) -> if c == n then Some s else go rest
    | [ _ ] | [] -> None
  in
  go (Dom.children parent)

(* Key of the first node after [n]'s subtree in document order; [up]
   are [n]'s ancestors, innermost first. *)
let rec key_after n = function
  | [] -> max_int
  | p :: up -> (
      match next_sibling p n with Some s -> s.Dom.order | None -> key_after p up)

(* The free keys [\[lo, bound)] for a child of [parent] right after
   [pred] ([None]: first child); [up] are [parent]'s ancestors.  A fresh
   subtree fits when [Dom.number_from fresh lo <= bound]. *)
let gap ~parent ~pred ~up =
  let lo, next =
    match pred with
    | Some c -> (c.Dom.hi, next_sibling parent c)
    | None -> (parent.Dom.order + 1, List.nth_opt (Dom.children parent) 0)
  in
  (lo, match next with Some s -> s.Dom.order | None -> key_after parent up)

(* A fresh version of element [n] with [children] and [n]'s key.  All
   children of every version of a key point at one version, the first
   (whatever the shared ones already point at): the store resolves that
   pointer by key, and a retired spine copy, whose children list is as
   long as the section, is then reachable from no child and collectable. *)
let copy n ~fresh children =
  match n.Dom.desc with
  | Dom.Text _ -> invalid_arg "Updates.copy: text node"
  | Dom.Element e ->
      let first =
        match e.Dom.children with { Dom.parent = Some p; _ } :: _ -> p | _ -> n
      in
      let hi = List.fold_left (fun hi (c : Dom.node) -> Int.max hi c.Dom.hi) n.Dom.hi children in
      List.iter (fun c -> c.Dom.parent <- Some first) fresh;
      { Dom.desc = Dom.Element { e with Dom.children }; parent = None; order = n.Dom.order; hi }

(* Put [n'] in place of [old] below ancestors [up]: the new root and the
   (old, copy) pairs of the copied spine. *)
let rec rebuild old n' = function
  | [] -> (n', [])
  | p :: up ->
      let p' = copy p ~fresh:[ n' ] (List.map (fun c -> if c == old then n' else c) (Dom.children p)) in
      let root, spine = rebuild p p' up in
      (root, (p, p') :: spine)

let last l = List.fold_left (fun _ c -> Some c) None l

(* Append the fresh subtree [fresh] below [parent], a node of [root]. *)
let append root parent fresh =
  let up = ancestors root parent.Dom.order in
  let lo, bound = gap ~parent ~pred:(last (Dom.children parent)) ~up in
  let fits = Dom.number_from fresh lo <= bound in
  let parent' = copy parent ~fresh:[ fresh ] (Dom.children parent @ [ fresh ]) in
  let root, spine = rebuild parent parent' up in
  (fits, root, (parent, parent') :: spine)

let relabel t root =
  let root = Dom.deep_copy root in
  let nodes = Dom.index root in
  Xmark_stats.incr "publish_relabels";
  Xmark_stats.incr ~by:nodes "publish_nodes_built";
  t.root <- root;
  t.published <- None;
  Hashtbl.reset t.dirty;
  index_ids t.ids root

(* Fold one key's change into what is already pending for it. *)
let note t key ~before ~after ~copied =
  let before = match Hashtbl.find_opt t.dirty key with Some c -> c.MM.before | None -> before in
  Hashtbl.replace t.dirty key { MM.key; before; after; copied }

(* Make [root] the current version.  [removed] and [inserted] are subtree
   roots, [replaced] (old, copy) pairs; [fits] is false when a fresh
   subtree ran out of keys.  Nothing before this call touched the
   session, so a rejected update leaves no trace. *)
let install t ~fits ~removed ~replaced ~inserted root =
  if not fits then relabel t root
  else begin
    t.root <- root;
    let set_id n = Option.iter (fun id -> Hashtbl.replace t.ids id n) (Dom.attr n "id") in
    List.iter (Dom.iter (fun n -> Option.iter (Hashtbl.remove t.ids) (Dom.attr n "id"))) removed;
    List.iter (fun (_, n) -> set_id n) replaced;
    List.iter (Dom.iter set_id) inserted;
    if Option.is_some t.published then begin
      List.iter
        (Dom.iter (fun n -> note t n.Dom.order ~before:(Some n) ~after:None ~copied:false))
        removed;
      List.iter
        (fun (o, n) -> note t n.Dom.order ~before:(Some o) ~after:(Some n) ~copied:true)
        replaced;
      List.iter
        (Dom.iter (fun n -> note t n.Dom.order ~before:None ~after:(Some n) ~copied:false))
        inserted
    end
  end

let register_person t ~name ~email =
  let people = require_section t.root "people" in
  t.person_counter <- t.person_counter + 1;
  let id = Printf.sprintf "person%d" t.person_counter in
  let person =
    Dom.element ~attrs:[ ("id", id) ]
      ~children:[ Dom.element ~children:[ Dom.text name ] "name";
                  Dom.element ~children:[ Dom.text email ] "emailaddress" ]
      "person"
  in
  let fits, root, replaced = append t.root people person in
  install t ~fits ~removed:[] ~replaced ~inserted:[ person ] root;
  id

let leaf_value n tag =
  match child_el n tag with
  | Some c -> Dom.string_value c
  | None -> err "<%s> missing inside <%s>" tag (Dom.name n)

let money f = Printf.sprintf "%.2f" f

let find_open_auction t auction =
  if Hashtbl.mem t.closed_ids auction then fail (Auction_closed auction);
  match find_by_id t auction with
  | Some n when Dom.name n = "open_auction" -> n
  | Some _ | None -> fail (Unknown_auction auction)

let place_bid t ~auction ~person ~increase ~date ~time =
  if increase <= 0.0 then err "bid increase must be positive";
  let oa = find_open_auction t auction in
  (match find_by_id t person with
  | Some n when Dom.name n = "person" -> ()
  | Some _ | None -> fail (Unknown_person person));
  let cur =
    match child_el oa "current" with
    | Some c -> c
    | None -> err "<current> missing inside <open_auction>"
  in
  let current =
    match float_of_string_opt (Dom.string_value cur) with
    | Some v -> v
    | None -> err "auction %s has a non-numeric <current>" auction
  in
  let bidder =
    Dom.element
      ~children:
        [
          Dom.element ~children:[ Dom.text date ] "date";
          Dom.element ~children:[ Dom.text time ] "time";
          Dom.element ~attrs:[ ("person", person) ] "personref";
          Dom.element ~children:[ Dom.text (money increase) ] "increase";
        ]
      "bidder"
  in
  let up = ancestors t.root oa.Dom.order in
  (* DTD order: the new bidder follows the last initial/reserve/bidder *)
  let pred =
    last
      (List.filter
         (fun c -> List.mem (Dom.name c) [ "initial"; "reserve"; "bidder" ])
         (Dom.children oa))
  in
  let lo, bound = gap ~parent:oa ~pred ~up in
  let fits_bid = Dom.number_from bidder lo <= bound in
  (* the new price replaces all of <current>'s children *)
  let price = Dom.text (money (current +. increase)) in
  let fits_price = Dom.number_from price (cur.Dom.order + 1) <= key_after cur (oa :: up) in
  let cur' = copy cur ~fresh:[ price ] [ price ] in
  let swap c = if c == cur then cur' else c in
  let children =
    match pred with
    | None -> bidder :: List.map swap (Dom.children oa)
    | Some p -> List.concat_map (fun c -> if c == p then [ c; bidder ] else [ swap c ]) (Dom.children oa)
  in
  let oa' = copy oa ~fresh:[ bidder; cur' ] children in
  let root, spine = rebuild oa oa' up in
  install t ~fits:(fits_bid && fits_price) ~removed:(Dom.children cur)
    ~replaced:((cur, cur') :: (oa, oa') :: spine) ~inserted:[ bidder; price ] root

let close_auction t ~auction ~date =
  let oa = find_open_auction t auction in
  let bidders = List.filter (fun c -> Dom.name c = "bidder") (Dom.children oa) in
  let last_bidder =
    match List.rev bidders with b :: _ -> b | [] -> fail (No_bids auction)
  in
  let buyer =
    match child_el last_bidder "personref" with
    | Some p -> ( match Dom.attr p "person" with Some v -> v | None -> err "bidder without person")
    | None -> err "bidder without personref"
  in
  let price = leaf_value oa "current" in
  ignore (require_section t.root "closed_auctions");
  let ref_attr tag =
    match child_el oa tag with
    | Some n -> Dom.attr n (match tag with "itemref" -> "item" | _ -> "person")
    | None -> None
  in
  let get_opt tag = Option.map Dom.string_value (child_el oa tag) in
  let closed =
    Dom.element
      ~children:
        ([
           Dom.element ~attrs:[ ("person", Option.value ~default:"" (ref_attr "seller")) ] "seller";
           Dom.element ~attrs:[ ("person", buyer) ] "buyer";
           Dom.element ~attrs:[ ("item", Option.value ~default:"" (ref_attr "itemref")) ] "itemref";
           Dom.element ~children:[ Dom.text price ] "price";
           Dom.element ~children:[ Dom.text date ] "date";
           Dom.element
             ~children:[ Dom.text (Option.value ~default:"1" (get_opt "quantity")) ]
             "quantity";
           Dom.element
             ~children:[ Dom.text (Option.value ~default:"Regular" (get_opt "type")) ]
             "type";
         ]
        @ (match child_el oa "annotation" with Some a -> [ Dom.deep_copy a ] | None -> []))
      "closed_auction"
  in
  (* unlink from its parent, then append to closed_auctions *)
  let up = ancestors t.root oa.Dom.order in
  let opens = List.hd up in
  let opens' = copy opens ~fresh:[] (List.filter (fun c -> c != oa) (Dom.children opens)) in
  let root, unlinked = rebuild opens opens' (List.tl up) in
  let fits, root, appended = append root (require_section root "closed_auctions") closed in
  Hashtbl.replace t.closed_ids auction ();
  install t ~fits ~removed:[ oa ] ~replaced:(((opens, opens') :: unlinked) @ appended)
    ~inserted:[ closed ] root
