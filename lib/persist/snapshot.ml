module R = Xmark_relational
module Dom = Xmark_xml.Dom

let corrupt = Page_io.corrupt

type b_image = {
  bi_tags : string list;
  bi_tag_tables : R.Table.t list;
  bi_text : R.Table.t;
  bi_attr_tables : (string * R.Table.t) list;
}

type payload =
  | Dom of Dom.node
  | Relational_b of b_image
  | Relational_c of R.Table.t list
  | Text of string

let kind_tag = function
  | Dom _ -> 0
  | Relational_b _ -> 1
  | Relational_c _ -> 2
  | Text _ -> 3

let rep n f =
  if n < 0 then corrupt "snapshot: negative count %d" n;
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  go n []

let split_at n xs =
  let rec go k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | [] -> invalid_arg "split_at"
      | x :: tl -> go (k - 1) (x :: acc) tl
  in
  go n [] xs

(* --- write ---------------------------------------------------------------- *)

let sections_of_payload = function
  | Dom root ->
      let dict = Codec.symdict_of_dom root in
      [
        ("symdict", fun b -> Codec.add_symdict b dict);
        ("dom", fun b -> Codec.add_dom b ~dict root);
      ]
  | Text doc -> [ ("text", fun b -> Codec.add_str b doc) ]
  | Relational_c tables ->
      List.map
        (fun t -> ("table:" ^ R.Table.name t, fun b -> Codec.add_table b t))
        tables
  | Relational_b img ->
      let meta b =
        Codec.add_u32 b (List.length img.bi_tags);
        List.iter (Codec.add_str b) img.bi_tags;
        Codec.add_u32 b (List.length img.bi_attr_tables);
        List.iter (fun (n, _) -> Codec.add_str b n) img.bi_attr_tables
      in
      (("meta", meta) :: ("text", fun b -> Codec.add_table b img.bi_text)
      :: List.map2
           (fun tag tbl -> ("tag:" ^ tag, fun b -> Codec.add_table b tbl))
           img.bi_tags img.bi_tag_tables)
      @ List.map
          (fun (n, tbl) -> ("attr:" ^ n, fun b -> Codec.add_table b tbl))
          img.bi_attr_tables

let paginate ~first_page blob =
  let len = String.length blob in
  let npages = Page_io.pages_for len in
  let out = Bytes.make (npages * Page_io.page_size) '\000' in
  for i = 0 to npages - 1 do
    let off = i * Page_io.page_size in
    let start = i * Page_io.payload_size in
    let take = min Page_io.payload_size (len - start) in
    Bytes.blit_string blob start out off take;
    Page_io.seal out ~off ~page:(first_page + i)
  done;
  out

(* prelude (24 B) + system/kind (2 B) + section count (4 B) = 30, plus a
   24-byte fixed part per directory entry, plus the trailing header CRC. *)
let header_len_for encoded =
  34 + 4
  + List.fold_left (fun acc (n, _, _) -> acc + 24 + String.length n) 0 encoded

let write ~path ~system payload =
  let encoded =
    List.map
      (fun (name, enc) ->
        let b = Buffer.create 65536 in
        enc b;
        let blob = Buffer.contents b in
        (name, blob, Crc32.digest blob))
      (sections_of_payload payload)
  in
  let header_len = header_len_for encoded in
  let header_pages = Page_io.pages_for header_len in
  let entries, total_pages =
    List.fold_left
      (fun (acc, next) (name, blob, crc) ->
        let np = Page_io.pages_for (String.length blob) in
        ((name, blob, crc, next, np) :: acc, next + np))
      ([], header_pages) encoded
  in
  let entries = List.rev entries in
  let hb = Buffer.create header_len in
  Buffer.add_string hb Page_io.magic;
  Codec.add_u32 hb Page_io.format_version;
  Codec.add_u32 hb Page_io.endian_marker;
  Codec.add_u32 hb Page_io.page_size;
  Codec.add_u32 hb header_len;
  Codec.add_u32 hb total_pages;
  Codec.add_u8 hb (Char.code system);
  Codec.add_u8 hb (kind_tag payload);
  Codec.add_u32 hb (List.length entries);
  List.iter
    (fun (name, blob, crc, first, np) ->
      Codec.add_str hb name;
      Codec.add_i64 hb (String.length blob);
      Codec.add_u32 hb first;
      Codec.add_u32 hb np;
      Codec.add_u32 hb crc)
    entries;
  Codec.add_u32 hb (Crc32.digest (Buffer.contents hb));
  assert (Buffer.length hb = header_len);
  let header_bytes = paginate ~first_page:0 (Buffer.contents hb) in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_bytes oc header_bytes;
      List.iter
        (fun (_, blob, _, first, _) -> output_bytes oc (paginate ~first_page:first blob))
        entries)

(* --- read ----------------------------------------------------------------- *)

let read_prelude path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if len < 24 then corrupt "%s: truncated snapshot (%d bytes)" path len;
      really_input_string ic 24)

let check_prelude path prelude =
  if String.sub prelude 0 8 <> Page_io.magic then
    corrupt "%s: bad magic — not an XMark snapshot" path;
  let d = Codec.decoder (String.sub prelude 8 16) in
  let version = Codec.u32 d in
  if version <> Page_io.format_version then
    corrupt "%s: unsupported snapshot format version %d (this build reads %d)"
      path version Page_io.format_version;
  let endian = Codec.u32 d in
  if endian <> Page_io.endian_marker then
    corrupt "%s: endianness marker %08x does not match %08x" path endian
      Page_io.endian_marker;
  let psize = Codec.u32 d in
  if psize <> Page_io.page_size then
    corrupt "%s: page size %d (this build uses %d)" path psize Page_io.page_size;
  Codec.u32 d

let read_directory path pager header_len =
  let header = Pager.read_blob pager ~first_page:0 ~byte_len:header_len in
  let stored =
    Int32.to_int (String.get_int32_le header (header_len - 4)) land 0xffffffff
  in
  let computed = Crc32.digest_sub header 0 (header_len - 4) in
  if stored <> computed then
    corrupt "%s: header checksum mismatch (stored %08x, computed %08x)" path
      stored computed;
  let d = Codec.decoder (String.sub header 24 (header_len - 28)) in
  let total_pages = Codec.u32 d in
  if total_pages <> Pager.page_count pager then
    corrupt "%s: header declares %d pages, file has %d (truncated?)" path
      total_pages (Pager.page_count pager);
  let system = Char.chr (Codec.u8 d) in
  let kind = Codec.u8 d in
  let nsec = Codec.u32 d in
  let next = ref (Page_io.pages_for header_len) in
  let entries =
    rep nsec (fun () ->
        let name = Codec.str d in
        let byte_len = Codec.i64 d in
        let first = Codec.u32 d in
        let np = Codec.u32 d in
        let crc = Codec.u32 d in
        if byte_len < 0 || first <> !next || np <> Page_io.pages_for byte_len
        then corrupt "%s: section %S: inconsistent directory entry" path name;
        next := first + np;
        if !next > total_pages then
          corrupt "%s: section %S: page run past end of file" path name;
        (name, byte_len, first, crc))
  in
  Codec.finish d;
  (system, kind, entries)

let read_sections path pager entries =
  List.map
    (fun (name, byte_len, first, crc) ->
      let blob = Pager.read_blob pager ~first_page:first ~byte_len in
      if Crc32.digest blob <> crc then
        corrupt "%s: section %S: checksum mismatch" path name;
      Xmark_stats.incr ~by:byte_len "snapshot_bytes";
      (name, blob))
    entries

let decode_table (name, blob) =
  let d = Codec.decoder blob in
  let t = Codec.table d in
  Codec.finish d;
  (name, t)

let decode_payload path kind blobs =
  match (kind, blobs) with
  | 0, [ ("symdict", sblob); ("dom", blob) ] ->
      let sd = Codec.decoder sblob in
      let dict = Codec.symdict sd in
      Codec.finish sd;
      let d = Codec.decoder blob in
      let root = Codec.dom d ~dict in
      Codec.finish d;
      ignore (Dom.index root);
      Dom root
  | 3, [ ("text", blob) ] ->
      let d = Codec.decoder blob in
      let s = Codec.str d in
      Codec.finish d;
      Text s
  | 2, _ ->
      let tables =
        List.map decode_table blobs
        |> List.map (fun (name, t) ->
               if name <> "table:" ^ R.Table.name t then
                 corrupt "%s: section %S holds table %S" path name
                   (R.Table.name t);
               t)
      in
      Relational_c tables
  | 1, ("meta", mblob) :: rest ->
      let md = Codec.decoder mblob in
      let tags = rep (Codec.u32 md) (fun () -> Codec.str md) in
      let attr_names = rep (Codec.u32 md) (fun () -> Codec.str md) in
      Codec.finish md;
      let expected =
        ("text" :: List.map (fun t -> "tag:" ^ t) tags)
        @ List.map (fun a -> "attr:" ^ a) attr_names
      in
      if List.length rest <> List.length expected then
        corrupt "%s: shredded snapshot has %d sections, meta promises %d" path
          (List.length rest) (List.length expected);
      List.iter2
        (fun want (got, _) ->
          if want <> got then
            corrupt "%s: expected section %S, found %S" path want got)
        expected rest;
      let decoded = List.map (fun s -> snd (decode_table s)) rest in
      let bi_text, more =
        match decoded with
        | t :: more -> (t, more)
        | [] -> corrupt "%s: shredded snapshot has no text table" path
      in
      let bi_tag_tables, attr_tables = split_at (List.length tags) more in
      Relational_b
        {
          bi_tags = tags;
          bi_tag_tables;
          bi_text;
          bi_attr_tables = List.combine attr_names attr_tables;
        }
  | k, _ when k > 3 -> corrupt "%s: unknown payload kind %d" path k
  | _, _ -> corrupt "%s: malformed snapshot directory for payload kind %d" path kind

let read ?capacity path =
  let header_len = check_prelude path (read_prelude path) in
  let pager = Pager.open_file ?capacity path in
  Fun.protect
    ~finally:(fun () -> Pager.close pager)
    (fun () ->
      if header_len < 38 || Page_io.pages_for header_len > Pager.page_count pager
      then corrupt "%s: implausible header length %d" path header_len;
      let system, kind, entries = read_directory path pager header_len in
      let blobs = read_sections path pager entries in
      (system, decode_payload path kind blobs))

(* Header-only probe: everything a fleet parent needs to validate a
   snapshot before forking workers at it — system letter, payload kind,
   size — without decoding a single section.  Read-only, like [read]:
   any number of processes may probe and restore the same file
   concurrently; nothing here (or in [read]) ever opens it for
   writing. *)
let kind_name = function
  | 0 -> "dom"
  | 1 -> "relational-b"
  | 2 -> "relational-c"
  | 3 -> "text"
  | k -> Printf.sprintf "unknown-%d" k

let probe path =
  let header_len = check_prelude path (read_prelude path) in
  let pager = Pager.open_file ~capacity:8 path in
  Fun.protect
    ~finally:(fun () -> Pager.close pager)
    (fun () ->
      if header_len < 38 || Page_io.pages_for header_len > Pager.page_count pager
      then corrupt "%s: implausible header length %d" path header_len;
      let system, kind, entries = read_directory path pager header_len in
      let bytes =
        List.fold_left (fun acc (_, byte_len, _, _) -> acc + byte_len) 0 entries
      in
      (system, kind_name kind, bytes))
