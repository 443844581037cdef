module R = Xmark_relational
module Dom = Xmark_xml.Dom
module Symbol = Xmark_xml.Symbol

let corrupt = Page_io.corrupt

type decoder = { src : string; mutable pos : int }

let decoder src = { src; pos = 0 }

let remaining d = String.length d.src - d.pos

let need d n =
  if remaining d < n then corrupt "section decode: wanted %d bytes, %d left" n (remaining d)

(* --- encoders ------------------------------------------------------------ *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)

let add_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let add_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_value b = function
  | R.Value.Null -> add_u8 b 0
  | R.Value.Int i ->
      add_u8 b 1;
      add_i64 b i
  | R.Value.Num f ->
      add_u8 b 2;
      add_f64 b f
  | R.Value.Str s ->
      add_u8 b 3;
      add_str b s

let add_table b tbl =
  add_str b (R.Table.name tbl);
  let cols = R.Table.columns tbl in
  add_u32 b (Array.length cols);
  Array.iter (add_str b) cols;
  add_u32 b (R.Table.row_count tbl);
  R.Table.iter (fun _ row -> Array.iter (add_value b) row) tbl

(* The element-name dictionary for a DOM section: every distinct tag in
   pre-order first-use order.  Indexes are derived from document content
   alone — never from global symbol ids, which depend on interning
   history — so the encoded bytes are identical across runs. *)
type symdict = {
  sd_names : string list;  (* first-use order *)
  sd_index : (Symbol.t, int) Hashtbl.t;
}

let symdict_of_dom root =
  let sd_index = Hashtbl.create 97 in
  let names_rev = ref [] in
  let rec walk n =
    match n.Dom.desc with
    | Dom.Text _ -> ()
    | Dom.Element e ->
        if not (Hashtbl.mem sd_index e.Dom.name) then begin
          Hashtbl.replace sd_index e.Dom.name (Hashtbl.length sd_index);
          names_rev := Symbol.to_string e.Dom.name :: !names_rev
        end;
        List.iter walk e.Dom.children
  in
  walk root;
  { sd_names = List.rev !names_rev; sd_index }

let add_symdict b dict =
  add_u32 b (List.length dict.sd_names);
  List.iter (add_str b) dict.sd_names

let rec add_dom b ~dict node =
  match node.Dom.desc with
  | Dom.Text s ->
      add_u8 b 2;
      add_str b s
  | Dom.Element e ->
      add_u8 b 1;
      add_u32 b (Hashtbl.find dict.sd_index e.Dom.name);
      add_u32 b (List.length e.Dom.attrs);
      List.iter
        (fun (k, v) ->
          add_str b k;
          add_str b v)
        e.Dom.attrs;
      add_u32 b (List.length e.Dom.children);
      List.iter (add_dom b ~dict) e.Dom.children

(* --- decoders ------------------------------------------------------------ *)

let u8 d =
  need d 1;
  let v = Char.code d.src.[d.pos] in
  d.pos <- d.pos + 1;
  v

let u32 d =
  need d 4;
  let v = Int32.to_int (String.get_int32_le d.src d.pos) land 0xffffffff in
  d.pos <- d.pos + 4;
  v

let i64 d =
  need d 8;
  let v = Int64.to_int (String.get_int64_le d.src d.pos) in
  d.pos <- d.pos + 8;
  v

let f64 d =
  need d 8;
  let v = Int64.float_of_bits (String.get_int64_le d.src d.pos) in
  d.pos <- d.pos + 8;
  v

let str d =
  let n = u32 d in
  need d n;
  let s = String.sub d.src d.pos n in
  d.pos <- d.pos + n;
  s

(* [List.init]/[Array.init] leave evaluation order unspecified; decoding
   consumes a cursor, so sequencing must be explicit. *)
let read_list n f =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  if n < 0 then corrupt "section decode: negative count %d" n;
  go n []

let value d =
  match u8 d with
  | 0 -> R.Value.Null
  | 1 -> R.Value.Int (i64 d)
  | 2 -> R.Value.Num (f64 d)
  | 3 -> R.Value.Str (str d)
  | t -> corrupt "section decode: unknown value tag %d" t

let table d =
  let name = str d in
  let ncols = u32 d in
  let cols = read_list ncols (fun () -> str d) in
  let arity = List.length cols in
  if arity = 0 then corrupt "section decode: table %S has no columns" name;
  let tbl = R.Table.create ~name ~cols in
  let nrows = u32 d in
  for _ = 1 to nrows do
    let row = Array.make arity R.Value.Null in
    for i = 0 to arity - 1 do
      row.(i) <- value d
    done;
    R.Table.append tbl row
  done;
  R.Table.seal tbl;
  tbl

let symdict d =
  let n = u32 d in
  Array.of_list (read_list n (fun () -> Symbol.intern (str d)))

let rec dom d ~dict =
  match u8 d with
  | 2 -> Dom.text (str d)
  | 1 ->
      let i = u32 d in
      if i >= Array.length dict then
        corrupt "section decode: element name id %d outside dictionary of %d" i
          (Array.length dict);
      let name = dict.(i) in
      let nattrs = u32 d in
      let attrs =
        read_list nattrs (fun () ->
            let k = str d in
            let v = str d in
            (k, v))
      in
      let nkids = u32 d in
      let children = read_list nkids (fun () -> dom d ~dict) in
      Dom.element_sym ~attrs ~children name
  | t -> corrupt "section decode: unknown DOM node tag %d" t

let finish d =
  if remaining d <> 0 then corrupt "section decode: %d trailing bytes" (remaining d)
