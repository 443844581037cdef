module R = Xmark_relational
module Sax = Xmark_xml.Sax
module Symbol = Xmark_xml.Symbol

type node = int  (* global node id = document pre-order *)

type t = {
  cat : R.Catalog.t;
  element_tags : string list;  (* registration order *)
  element_tag_syms : Symbol.t list;  (* same order, interned *)
  tag_tables : R.Table.t option array;  (* symbol -> (id, parent, pos) relation *)
  text_table : R.Table.t;  (* (id, parent, pos, value) *)
  child_indexes : R.Index.t option array;  (* symbol -> index on parent *)
  text_child_index : R.Index.t;
  attr_tables : (string, R.Table.t) Hashtbl.t;  (* "tag@attr" -> (owner, value) *)
  attr_info : (string * R.Table.t * R.Index.t) list array;
      (* symbol -> (key, relation, owner index), first-encounter order *)
  id_tables : string list;  (* attr table keys that hold "id" attributes *)
  id_indexes : (string, R.Index.t) Hashtbl.t;  (* keyed on value *)
  attr_order : string list;  (* "tag@attr" names, first-encounter order *)
  dir_tag : Symbol.t array;  (* node id -> tag, Symbol.empty for text *)
  dir_row : int array;  (* node id -> row in its relation *)
  mutable vcache : R.Vec_ops.adapter option;
      (* id-algebra view, built on first use; safe to cache because the
         shredded store is immutable after finalize *)
}

(* The shredder is a fold over SAX events; [builder] is its mutable
   state, driven over the whole stream and then sealed by [finalize]. *)
type builder = {
  b_tag_tables : (Symbol.t, R.Table.t) Hashtbl.t;
  b_attr_tables : (string, R.Table.t) Hashtbl.t;
  b_attr_names : (Symbol.t, string list) Hashtbl.t;
  b_text : R.Table.t;
  mutable b_tags_rev : Symbol.t list;  (* element tags, reverse first-encounter *)
  mutable b_attrs_rev : string list;  (* "tag@key" names, reverse first-encounter *)
  mutable b_dir_rev : (Symbol.t * int) list;  (* (tag, row in its relation), reverse id order *)
  mutable b_counter : int;  (* next node id *)
  mutable b_stack : (int * int) list;  (* (parent id, next child pos) *)
}

let new_builder () =
  {
    b_tag_tables = Hashtbl.create 97;
    b_attr_tables = Hashtbl.create 97;
    b_attr_names = Hashtbl.create 97;
    b_text = R.Table.create ~name:"_text" ~cols:[ "id"; "parent"; "pos"; "value" ];
    b_tags_rev = [];
    b_attrs_rev = [];
    b_dir_rev = [];
    b_counter = 0;
    b_stack = [];
  }

let is_ws s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

(* Feed events into a builder until [next] returns [Eof]. *)
let shred b next =
  let parent_and_pos () =
    match b.b_stack with
    | [] -> (-1, 0)
    | (pid, pos) :: rest ->
        b.b_stack <- (pid, pos + 1) :: rest;
        (pid, pos)
  in
  let table_for tag =
    match Hashtbl.find_opt b.b_tag_tables tag with
    | Some tbl -> tbl
    | None ->
        let tbl =
          R.Table.create ~name:(Symbol.to_string tag) ~cols:[ "id"; "parent"; "pos" ]
        in
        Hashtbl.replace b.b_tag_tables tag tbl;
        b.b_tags_rev <- tag :: b.b_tags_rev;
        tbl
  in
  let attr_table_for tag key =
    let tname = Symbol.to_string tag ^ "@" ^ key in
    match Hashtbl.find_opt b.b_attr_tables tname with
    | Some tbl -> tbl
    | None ->
        let tbl = R.Table.create ~name:tname ~cols:[ "owner"; "value" ] in
        Hashtbl.replace b.b_attr_tables tname tbl;
        b.b_attrs_rev <- tname :: b.b_attrs_rev;
        Hashtbl.replace b.b_attr_names tag
          (key :: Option.value ~default:[] (Hashtbl.find_opt b.b_attr_names tag));
        tbl
  in
  let rec loop () =
    match next () with
    | Sax.Eof -> ()
    | Sax.Start_element (tag, alist) ->
        let pid, pos = parent_and_pos () in
        let id = b.b_counter in
        b.b_counter <- id + 1;
        let tbl = table_for tag in
        b.b_dir_rev <- (tag, R.Table.row_count tbl) :: b.b_dir_rev;
        R.Table.append tbl [| R.Value.Int id; R.Value.Int pid; R.Value.Int pos |];
        List.iter
          (fun (k, v) ->
            R.Table.append (attr_table_for tag k) [| R.Value.Int id; R.Value.Str v |])
          alist;
        b.b_stack <- (id, 0) :: b.b_stack;
        loop ()
    | Sax.End_element _ ->
        (match b.b_stack with _ :: rest -> b.b_stack <- rest | [] -> ());
        loop ()
    | Sax.Chars s ->
        if not (is_ws s) then begin
          let pid, pos = parent_and_pos () in
          let id = b.b_counter in
          b.b_counter <- id + 1;
          b.b_dir_rev <- (Symbol.empty, R.Table.row_count b.b_text) :: b.b_dir_rev;
          R.Table.append b.b_text
            [| R.Value.Int id; R.Value.Int pid; R.Value.Int pos; R.Value.Str s |]
        end;
        loop ()
  in
  loop ()

(* Index construction and catalog registration over a finished builder.
   Attribute relations register in [Hashtbl.iter] order, which a restore
   reproduces by refilling the hashtable in first-encounter order. *)
let finalize b =
  let element_tag_syms = List.rev b.b_tags_rev in
  let element_tags = List.map Symbol.to_string element_tag_syms in
  let cat = R.Catalog.create () in
  List.iter
    (fun tag -> R.Catalog.register cat (Hashtbl.find b.b_tag_tables tag))
    element_tag_syms;
  R.Catalog.register cat b.b_text;
  Hashtbl.iter (fun _ tbl -> R.Catalog.register cat tbl) b.b_attr_tables;
  List.iter (fun tag -> R.Table.seal (Hashtbl.find b.b_tag_tables tag)) element_tag_syms;
  R.Table.seal b.b_text;
  Hashtbl.iter (fun _ tbl -> R.Table.seal tbl) b.b_attr_tables;
  (* Symbol-indexed lookup arrays: every tag in the document was interned
     before this point, so its id is in range; tags interned later (query
     constants absent from the document) are guarded at the accessors. *)
  let n_syms = Symbol.count () in
  let tag_tables = Array.make n_syms None in
  let child_indexes = Array.make n_syms None in
  List.iter
    (fun tag ->
      let tbl = Hashtbl.find b.b_tag_tables tag in
      tag_tables.((tag : Symbol.t :> int)) <- Some tbl;
      let idx = R.Index.build tbl "parent" in
      child_indexes.((tag : Symbol.t :> int)) <- Some idx;
      R.Catalog.register_index cat ~table:(Symbol.to_string tag) ~column:"parent" idx)
    element_tag_syms;
  let text_child_index = R.Index.build b.b_text "parent" in
  R.Catalog.register_index cat ~table:"_text" ~column:"parent" text_child_index;
  let is_id_table tname =
    String.length tname > 3 && String.sub tname (String.length tname - 3) 3 = "@id"
  in
  let attr_owner_indexes = Hashtbl.create 97 in
  let id_indexes = Hashtbl.create 8 in
  let id_tables = ref [] in
  Hashtbl.iter
    (fun tname tbl ->
      let owner = R.Index.build tbl "owner" in
      Hashtbl.replace attr_owner_indexes tname owner;
      R.Catalog.register_index cat ~table:tname ~column:"owner" owner;
      if is_id_table tname then begin
        let vidx = R.Index.build tbl "value" in
        Hashtbl.replace id_indexes tname vidx;
        id_tables := tname :: !id_tables;
        R.Catalog.register_index cat ~table:tname ~column:"value" vidx
      end)
    b.b_attr_tables;
  (* per-tag attribute metadata resolved once, so an [attributes] call
     needs no "tag@key" string building or hashtable probes *)
  let attr_info = Array.make n_syms [] in
  Hashtbl.iter
    (fun tag keys_rev ->
      attr_info.((tag : Symbol.t :> int)) <-
        List.rev_map
          (fun key ->
            let tname = Symbol.to_string tag ^ "@" ^ key in
            (key, Hashtbl.find b.b_attr_tables tname, Hashtbl.find attr_owner_indexes tname))
          keys_rev)
    b.b_attr_names;
  let dir = Array.of_list (List.rev b.b_dir_rev) in
  {
    cat;
    element_tags;
    element_tag_syms;
    tag_tables;
    text_table = b.b_text;
    child_indexes;
    text_child_index;
    attr_tables = b.b_attr_tables;
    attr_info;
    id_tables = !id_tables;
    id_indexes;
    attr_order = List.rev b.b_attrs_rev;
    dir_tag = Array.map fst dir;
    dir_row = Array.map snd dir;
    vcache = None;
  }

let load_string s =
  let b = new_builder () in
  let p = Sax.of_string s in
  shred b (fun () -> Sax.next p);
  let t = finalize b in
  (* same typed rejection as the DOM builder: a rootless document must
     not produce an empty store that later navigation trips over *)
  if Array.length t.dir_tag = 0 then
    raise (Sax.Parse_error { line = 1; col = 1; message = "no root element" });
  t

let load_dom root = load_string (Xmark_xml.Serialize.to_string root)

(* --- snapshot image ------------------------------------------------------- *)

let to_image t =
  {
    Xmark_persist.Snapshot.bi_tags = t.element_tags;
    bi_tag_tables =
      List.map
        (fun tag ->
          match t.tag_tables.((tag : Symbol.t :> int)) with
          | Some tbl -> tbl
          | None -> assert false)
        t.element_tag_syms;
    bi_text = t.text_table;
    bi_attr_tables = List.map (fun n -> (n, Hashtbl.find t.attr_tables n)) t.attr_order;
  }

(* Rebuild the store from a restored image by reconstituting the builder
   a load would have produced and running the ordinary [finalize].  The
   tag and attribute hashtables are repopulated in the image's
   first-encounter order — the same insertion sequence as the original
   load, so every order that leaks out of a hashtable downstream
   (catalog registration, index builds) matches a fresh load's
   and the restored session is structurally identical to a parsed one. *)
let of_image (img : Xmark_persist.Snapshot.b_image) =
  let corrupt = Xmark_persist.Page_io.corrupt in
  if List.length img.bi_tags <> List.length img.bi_tag_tables then
    corrupt "shredded image: %d tags but %d tag relations"
      (List.length img.bi_tags) (List.length img.bi_tag_tables);
  let tag_syms = List.map Symbol.intern img.bi_tags in
  let b_tag_tables = Hashtbl.create 97 in
  List.iter2
    (fun (tag, sym) tbl ->
      if R.Table.name tbl <> tag then
        corrupt "shredded image: relation %S filed under tag %S" (R.Table.name tbl) tag;
      Hashtbl.replace b_tag_tables sym tbl)
    (List.combine img.bi_tags tag_syms)
    img.bi_tag_tables;
  let b_attr_tables = Hashtbl.create 97 in
  let b_attr_names = Hashtbl.create 97 in
  let attrs_rev = ref [] in
  List.iter
    (fun (tname, tbl) ->
      match String.index_opt tname '@' with
      | None -> corrupt "shredded image: attribute relation %S lacks a tag@key name" tname
      | Some at ->
          let tag = Symbol.intern (String.sub tname 0 at) in
          let key = String.sub tname (at + 1) (String.length tname - at - 1) in
          Hashtbl.replace b_attr_tables tname tbl;
          attrs_rev := tname :: !attrs_rev;
          Hashtbl.replace b_attr_names tag
            (key :: Option.value ~default:[] (Hashtbl.find_opt b_attr_names tag)))
    img.bi_attr_tables;
  let total =
    List.fold_left
      (fun acc t -> acc + R.Table.row_count t)
      (R.Table.row_count img.bi_text)
      img.bi_tag_tables
  in
  let dir = Array.make (max total 1) (Symbol.empty, 0) in
  let place tag tbl =
    R.Table.iter
      (fun row_idx row ->
        match row.(0) with
        | R.Value.Int id when id >= 0 && id < total -> dir.(id) <- (tag, row_idx)
        | _ -> corrupt "shredded image: relation %S has inconsistent node ids" (R.Table.name tbl))
      tbl
  in
  List.iter2 place tag_syms img.bi_tag_tables;
  place Symbol.empty img.bi_text;
  let b =
    {
      b_tag_tables;
      b_attr_tables;
      b_attr_names;
      b_text = img.bi_text;
      b_tags_rev = List.rev tag_syms;
      b_attrs_rev = !attrs_rev;
      b_dir_rev =
        (if total = 0 then [] else Array.fold_left (fun acc e -> e :: acc) [] dir);
      b_counter = total;
      b_stack = [];
    }
  in
  finalize b

let catalog t = t.cat

let element_tags t = t.element_tags

let root _ = 0

let kind t n = if Symbol.equal t.dir_tag.(n) Symbol.empty then `Text else `Element

let name t n = t.dir_tag.(n)

let node_row t n =
  Xmark_stats.incr "nodes_scanned";
  let tag = t.dir_tag.(n) in
  if Symbol.equal tag Symbol.empty then R.Table.get t.text_table t.dir_row.(n)
  else
    match t.tag_tables.((tag : Symbol.t :> int)) with
    | Some tbl -> R.Table.get tbl t.dir_row.(n)
    | None -> assert false

let text t n =
  if not (Symbol.equal t.dir_tag.(n) Symbol.empty) then ""
  else
    match (R.Table.get t.text_table t.dir_row.(n)).(3) with
    | R.Value.Str s -> s
    | _ -> ""

(* A child step probes the parent index of every relation in the store:
   the price of fragmentation. *)
let children t n =
  let key = R.Value.Int n in
  let collect idx table =
    List.filter_map
      (fun row_id ->
        let row = R.Table.get table row_id in
        match (row.(0), row.(2)) with
        | R.Value.Int id, R.Value.Int pos -> Some (pos, id)
        | _ -> None)
      (R.Index.lookup idx key)
  in
  let from_tags =
    List.concat_map
      (fun tag ->
        let i = (tag : Symbol.t :> int) in
        match (t.child_indexes.(i), t.tag_tables.(i)) with
        | Some idx, Some tbl -> collect idx tbl
        | _ -> [])
      t.element_tag_syms
  in
  let from_text = collect t.text_child_index t.text_table in
  let out = List.sort compare (from_tags @ from_text) |> List.map snd in
  if Xmark_stats.enabled () then Xmark_stats.incr ~by:(List.length out) "nodes_scanned";
  out

let parent t n =
  match (node_row t n).(1) with
  | R.Value.Int p when p >= 0 -> Some p
  | _ -> None

let attributes t n =
  let tag = t.dir_tag.(n) in
  if Symbol.equal tag Symbol.empty then []
  else
    List.filter_map
      (fun (key, tbl, idx) ->
        match R.Index.lookup_rows idx tbl (R.Value.Int n) with
        | [ row ] -> (
            match row.(1) with R.Value.Str v -> Some (key, v) | _ -> None)
        | _ -> None)
      t.attr_info.((tag : Symbol.t :> int))

let attribute t n key = List.assoc_opt key (attributes t n)

let order _ n = n

let rec string_value_into t buf n =
  if kind t n = `Text then Buffer.add_string buf (text t n)
  else List.iter (string_value_into t buf) (children t n)

let string_value t n =
  let buf = Buffer.create 64 in
  string_value_into t buf n;
  Buffer.contents buf

let id_lookup t idval =
  let rec probe = function
    | [] -> Some None
    | tname :: rest -> (
        let idx = Hashtbl.find t.id_indexes tname in
        let tbl = Hashtbl.find t.attr_tables tname in
        match R.Index.lookup_rows idx tbl (R.Value.Str idval) with
        | row :: _ -> (
            match row.(0) with R.Value.Int owner -> Some (Some owner) | _ -> Some None)
        | [] -> probe rest)
  in
  probe t.id_tables

(* [tag_nodes]/[tag_count] go through the catalog on purpose: System B's
   defining cost is metadata consultation, and the explain counters
   measure exactly that.  The symbol is resolved to its name only here,
   at the catalog boundary. *)
let tag_nodes t tag =
  match R.Catalog.lookup t.cat (Symbol.to_string tag) with
  | None -> Some []
  | Some tbl ->
      if Xmark_stats.enabled () then
        Xmark_stats.incr ~by:(R.Table.row_count tbl) "nodes_scanned";
      Some
        (R.Table.fold
           (fun acc _ row -> match row.(0) with R.Value.Int id -> id :: acc | _ -> acc)
           [] tbl
        |> List.rev)

let tag_count t tag =
  Xmark_stats.incr "summary_consultations";
  match R.Catalog.lookup t.cat (Symbol.to_string tag) with
  | None -> Some 0
  | Some tbl -> Some (R.Table.row_count tbl)

let subtree_interval _ _ = None

let keyword_search _ ~tag:_ ~word:_ = None

(* Id-algebra view for the vectorized executor.  The per-tag relations
   already ARE sorted extents (rows in document order, ids ascending),
   so a named descendant step can skip the every-relation child probes
   that make [children] expensive here; [relation_count] tells the cost
   model exactly how expensive those probes are. *)
let build_adapter t =
  let n = Array.length t.dir_tag in
  let parents = Array.make (max n 1) (-1) in
  (* One pass per relation fills the parent column AND materializes the
     relation's extent (its id column, already in document order).  Both
     are built eagerly at adapter-construction (compile) time, so no
     execution pays for them, and the extent arrays double as the
     row-id -> node-id map the child probes need. *)
  let fill tbl =
    let ext = Array.make (R.Table.row_count tbl) (-1) in
    R.Table.iter
      (fun row_id row ->
        match (row.(0), row.(1)) with
        | R.Value.Int id, R.Value.Int p ->
            parents.(id) <- p;
            ext.(row_id) <- id
        | _ -> ())
      tbl;
    ext
  in
  let extents = Array.make (Array.length t.tag_tables) [||] in
  List.iter
    (fun tag ->
      let s = (tag : Symbol.t :> int) in
      match t.tag_tables.(s) with
      | Some tbl -> extents.(s) <- fill tbl
      | None -> ())
    t.element_tag_syms;
  ignore (fill t.text_table);
  let tag_of i =
    let tag = t.dir_tag.(i) in
    if Symbol.equal tag Symbol.empty then -1 else (tag : Symbol.t :> int)
  in
  let table_of s =
    if s >= 0 && s < Array.length t.tag_tables then t.tag_tables.(s) else None
  in
  let extent s = if s >= 0 && s < Array.length extents then extents.(s) else [||] in
  let elements =
    lazy
      (let b = R.Batch.create ~capacity:(max n 1) () in
       for i = 0 to n - 1 do
         if not (Symbol.equal t.dir_tag.(i) Symbol.empty) then R.Batch.push b i
       done;
       R.Batch.to_array b)
  in
  let ends = R.Vec_ops.subtree_ends (Array.sub parents 0 n) in
  let probe_one s ~parent b =
    match
      if s >= 0 && s < Array.length t.child_indexes then t.child_indexes.(s) else None
    with
    | Some idx ->
        let ext = extents.(s) in
        if Array.length ext > 0 then
          List.iter
            (fun row_id -> R.Batch.push b ext.(row_id))
            (R.Index.lookup idx (R.Value.Int parent))
    | None -> ()
  in
  {
    R.Vec_ops.node_count = n;
    root = 0;
    parent = (fun i -> parents.(i));
    tag_of;
    card = (fun s -> match table_of s with Some tbl -> R.Table.row_count tbl | None -> 0);
    extent;
    element_ids = (fun () -> Lazy.force elements);
    subtree_end = (fun () -> fun i -> ends.(i));
    probe_children =
      (fun ~tag ~parent b ->
        if tag >= 0 then probe_one tag ~parent b
        else
          (* untyped probe pays the fragmentation price: every relation *)
          List.iter
            (fun sym -> probe_one (sym : Symbol.t :> int) ~parent b)
            t.element_tag_syms);
    relation_count = List.length t.element_tag_syms;
  }

let vec t =
  let adapter =
    match t.vcache with
    | Some a -> a
    | None ->
        let a = build_adapter t in
        t.vcache <- Some a;
        a
  in
  Some (adapter, fun i -> i)

let size_bytes t = R.Catalog.byte_size t.cat + (16 * Array.length t.dir_tag)

let node_count t = Array.length t.dir_tag

let description _ = "relational, one relation per tag (fragmenting mapping, System B)"
