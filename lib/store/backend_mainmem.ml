module Dom = Xmark_xml.Dom
module Symbol = Xmark_xml.Symbol
module Stats = Xmark_stats
module Keys = Map.Make (Int)
module Ids = Map.Make (String)

type level = [ `Full | `Id_only | `Plain ]

type node = Dom.node

type change = { key : int; before : node option; after : node option; copied : bool }

type t = {
  root : Dom.node;
  lvl : level;
  ids : (string, Dom.node) Hashtbl.t option;  (* as loaded; never written again *)
  id_delta : Dom.node option Ids.t;
      (* ids changed by patches since the load, [None] = removed; read
         before [ids] *)
  tags : Dom.node list array option;
      (* symbol-indexed extents in key order; shorter than the symbol
         table only when tags were interned after the load *)
  parents : Dom.node Keys.t;
      (* key -> current node, for keys whose node was path-copied: a
         child shared with an older epoch still points at the parent
         version it was built under, which has the same key *)
  bytes : int;
  nodes : int;
  keyword_indexes : (Symbol.t, (string, Dom.node list) Hashtbl.t) Hashtbl.t;
      (* per-tag inverted index over string values; built lazily (System D's
         optional full-text access path, paper Section 6.9) *)
  kw_lock : Mutex.t;
      (* guards the lazy build: the only mutation a loaded store performs
         on its query path, so this lock is what makes a store shareable
         across the query service's domains *)
}

let node_bytes (n : node) =
  match n.Dom.desc with
  | Dom.Text s -> 24 + String.length s
  | Dom.Element e ->
      (* the interned tag is one immediate word, in the 64 *)
      64 + List.fold_left (fun a (k, v) -> a + 32 + String.length k + String.length v) 0 e.Dom.attrs

(* One walk builds everything.  A path-copied tree (a version built by
   [Updates]) has children still pointing at an older version of their
   parent; those pointers seed the parent map. *)
let create ~level root =
  if root.Dom.order < 0 then ignore (Dom.index root);
  let ids = match level with `Plain -> None | `Full | `Id_only -> Some (Hashtbl.create 4096) in
  (* every tag in the document is already interned, so the symbol count
     bounds the extent array *)
  let extents =
    match level with `Plain | `Id_only -> None | `Full -> Some (Array.make (Symbol.count ()) [])
  in
  let nodes = ref 0 and bytes = ref 0 and parents = ref Keys.empty in
  let rec walk n =
    incr nodes;
    bytes := !bytes + node_bytes n;
    match n.Dom.desc with
    | Dom.Text _ -> ()
    | Dom.Element e ->
        Option.iter
          (fun h -> Option.iter (fun id -> Hashtbl.replace h id n) (Dom.attr n "id"))
          ids;
        Option.iter
          (fun a ->
            let tag = (e.Dom.name :> int) in
            Array.unsafe_set a tag (n :: Array.unsafe_get a tag))
          extents;
        List.iter
          (fun (c : node) ->
            (match c.Dom.parent with
            | Some p when p != n -> parents := Keys.add p.Dom.order n !parents
            | Some _ | None -> ());
            walk c)
          e.Dom.children
  in
  walk root;
  { root; lvl = level; ids; id_delta = Ids.empty; tags = Option.map (Array.map List.rev) extents;
    parents = !parents; bytes = !bytes; nodes = !nodes;
    keyword_indexes = Hashtbl.create 4; kw_lock = Mutex.create () }

(* Merge key-sorted edits into an extent: [(k, None)] drops the member
   keyed [k], [(k, Some n)] inserts [n]; removals sort before inserts at
   one key.  The tail after the last edit is shared, not copied. *)
let patch_extent extent edits =
  let rec go acc l edits =
    match (edits, l) with
    | [], _ -> List.rev_append acc l
    | (k, _) :: _, (x : node) :: tl when x.Dom.order < k -> go (x :: acc) tl edits
    | (k, None) :: rest, x :: tl when x.Dom.order = k -> go acc tl rest
    | (k, Some _) :: _, x :: _ when x.Dom.order = k ->
        invalid_arg "Backend_mainmem.patch: key already taken"
    | (_, Some n) :: rest, _ -> go (n :: acc) l rest
    | (_, None) :: _, _ -> invalid_arg "Backend_mainmem.patch: removed node not in its extent"
  in
  go [] extent edits

let patch t ~root changes =
  let removed = List.filter_map (fun c -> c.before) changes in
  let added = List.filter_map (fun c -> c.after) changes in
  let parents =
    List.fold_left
      (fun m c ->
        match c.after with
        | Some n when c.copied -> Keys.add c.key n m
        | Some _ | None -> Keys.remove c.key m)
      t.parents changes
  in
  let id_delta =
    match t.ids with
    | None -> t.id_delta
    | Some _ ->
        let note v m n = match Dom.attr n "id" with Some id -> Ids.add id (v n) m | None -> m in
        let m = List.fold_left (note (fun _ -> None)) t.id_delta removed in
        List.fold_left (note Option.some) m added
  in
  (* tag -> key-sorted edits, removals first at a shared key *)
  let edits = Hashtbl.create 16 in
  if Option.is_some t.tags then begin
    let edit n e =
      if Dom.is_element n then begin
        let tag = (Dom.name_sym n :> int) in
        Hashtbl.replace edits tag (e :: Option.value ~default:[] (Hashtbl.find_opt edits tag))
      end
    in
    List.iter
      (fun c ->
        Option.iter (fun o -> edit o (c.key, None)) c.before;
        Option.iter (fun n -> edit n (c.key, Some n)) c.after)
      changes
  end;
  let tags =
    Option.map
      (fun old ->
        let extents = Array.make (max (Array.length old) (Symbol.count ())) [] in
        Array.blit old 0 extents 0 (Array.length old);
        let by_key (k1, a) (k2, b) =
          match Int.compare k1 k2 with
          | 0 -> Bool.compare (Option.is_some a) (Option.is_some b)
          | c -> c
        in
        Hashtbl.iter
          (fun tag es -> extents.(tag) <- patch_extent extents.(tag) (List.sort by_key es))
          edits;
        extents)
      t.tags
  in
  (* a keyword index over an untouched extent still holds: every node
     whose string value changed was path-copied, so its tag was edited *)
  let keyword_indexes = Hashtbl.create 4 in
  Mutex.protect t.kw_lock (fun () ->
      Hashtbl.iter
        (fun tag idx ->
          if not (Hashtbl.mem edits (tag : Symbol.t :> int)) then
            Hashtbl.replace keyword_indexes tag idx)
        t.keyword_indexes);
  let sum l = List.fold_left (fun a n -> a + node_bytes n) 0 l in
  { root; lvl = t.lvl; ids = t.ids; id_delta; tags; parents;
    bytes = t.bytes - sum removed + sum added;
    nodes = t.nodes - List.length removed + List.length added;
    keyword_indexes; kw_lock = Mutex.create () }

let of_string ~level s = create ~level (Xmark_xml.Sax.parse_string s)

let level t = t.lvl

let dom_root t = t.root

let root t = t.root

let kind _ n = if Dom.is_element n then `Element else `Text

let name _ n = Dom.name_sym n

let text _ (n : node) = match n.Dom.desc with Dom.Text s -> s | Dom.Element _ -> ""

let children _ n =
  let cs = Dom.children n in
  if Stats.enabled () then Stats.incr ~by:(List.length cs) "nodes_scanned";
  cs

let parent t (n : node) =
  match n.Dom.parent with
  | Some p when not (Keys.is_empty t.parents) -> (
      match Keys.find_opt p.Dom.order t.parents with None -> Some p | current -> current)
  | p -> p

let attributes _ (n : node) =
  match n.Dom.desc with Dom.Element e -> e.Dom.attrs | Dom.Text _ -> []

let attribute _ n key = Dom.attr n key

let order _ (n : node) = n.Dom.order

let string_value _ n = Dom.string_value n

let id_lookup t id =
  match t.ids with
  | None -> None
  | Some h ->
      Stats.incr "index_lookups";
      let hit =
        match Ids.find_opt id t.id_delta with Some v -> v | None -> Hashtbl.find_opt h id
      in
      if hit <> None then Stats.incr "index_hits";
      Some hit

let tag_nodes t tag =
  match t.tags with
  | None -> None
  | Some extents ->
      Stats.incr "summary_consultations";
      let i = (tag : Symbol.t :> int) in
      Some (if i < Array.length extents then extents.(i) else [])

let tag_count t tag = Option.map List.length (tag_nodes t tag)

let subtree_interval t (n : node) =
  match t.tags with
  | None -> None
  | Some _ ->
      Stats.incr "summary_consultations";
      Some (n.Dom.order, n.Dom.hi)

(* Tokens are maximal alphanumeric runs, lowercased. *)
let tokens s =
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char buf c
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii c)
      | _ -> flush ())
    s;
  flush ();
  !out

let keyword_index t tag =
  (* the whole lookup-or-build runs under kw_lock: concurrent readers of
     a warm index only pay an uncontended lock, and a cold index is
     built exactly once even when several domains ask for it at once *)
  Mutex.protect t.kw_lock (fun () ->
      match Hashtbl.find_opt t.keyword_indexes tag with
      | Some idx -> Some idx
      | None -> (
          match tag_nodes t tag with
          | None -> None
          | Some extent ->
              let idx = Hashtbl.create 4096 in
              List.iter
                (fun n ->
                  let seen = Hashtbl.create 64 in
                  List.iter
                    (fun w ->
                      if not (Hashtbl.mem seen w) then begin
                        Hashtbl.add seen w ();
                        Hashtbl.replace idx w
                          (n :: Option.value ~default:[] (Hashtbl.find_opt idx w))
                      end)
                    (tokens (Dom.string_value n)))
                extent;
              (* extents are in document order, so bucket lists reverse to it *)
              Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) idx;
              Hashtbl.replace t.keyword_indexes tag idx;
              Some idx))

let keyword_search t ~tag ~word =
  match keyword_index t tag with
  | None -> None
  | Some idx ->
      Stats.incr "index_lookups";
      let hits = Option.value ~default:[] (Hashtbl.find_opt idx (String.lowercase_ascii word)) in
      if hits <> [] then Stats.incr "index_hits";
      Some hits

(* Node handles are pointers carrying gapped keys, not dense pre-order
   ids, so there is no id algebra to vectorize over. *)
let vec _ = None

let size_bytes t = t.bytes

let node_count t = t.nodes

let description t =
  match t.lvl with
  | `Full -> "main-memory DOM + structural summary + ID index (System D)"
  | `Id_only -> "main-memory DOM + ID index (System E)"
  | `Plain -> "main-memory DOM, navigation only (System F)"
