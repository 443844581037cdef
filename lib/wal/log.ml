module Codec = Xmark_persist.Codec
module Crc32 = Xmark_persist.Crc32
module Page_io = Xmark_persist.Page_io

let magic = "XMWAL001"
let version = 1
let header_len = 8 + 1 + 8 + 4 + 4
let max_record = 1 lsl 20 (* a record is one auction-site op; 1 MiB is absurdly generous *)

type t = {
  fd : Unix.file_descr;
  base_len : int;
  base_crc : int;
  mutable lsn : int;
  mutable closed : bool;
}

type recovery = { records : Record.t list; truncated_bytes : int; last_lsn : int }

let header_bytes ~base_len ~base_crc =
  let buf = Buffer.create header_len in
  Buffer.add_string buf magic;
  Codec.add_u8 buf version;
  Codec.add_i64 buf base_len;
  Codec.add_u32 buf base_crc;
  let body = Buffer.contents buf in
  Codec.add_u32 buf (Crc32.digest body);
  Buffer.contents buf

(* Header fields from complete file bytes; totals every malformation
   into Corrupt. *)
let parse_header s =
  if String.length s < header_len then
    Page_io.corrupt "wal: truncated header (%d bytes)" (String.length s);
  if String.sub s 0 8 <> magic then Page_io.corrupt "wal: bad magic";
  let d = Codec.decoder (String.sub s 8 (header_len - 8)) in
  let v = Codec.u8 d in
  if v <> version then Page_io.corrupt "wal: unsupported version %d" v;
  let base_len = Codec.i64 d in
  let base_crc = Codec.u32 d in
  let stored = Codec.u32 d in
  Codec.finish d;
  if Crc32.digest_sub s 0 (header_len - 4) <> stored then
    Page_io.corrupt "wal: header checksum mismatch";
  if base_len < 0 then Page_io.corrupt "wal: negative base length";
  (base_len, base_crc)

(* A frame at [from - 1] failed its length or CRC check.  A crashed
   writer can only tear the {e final} append — every earlier frame was
   fsynced before the next one was written — so if any intact,
   decodable frame with an LSN past the last good one starts anywhere
   after the failure, the failed frame was once valid and was damaged
   in place: that is corruption, not a torn tail.  Candidate offsets
   whose length field is implausible are skipped without CRC work, so
   this probe only pays for byte positions that could hold a frame. *)
let probe_intact_frame_after s ~from ~after_lsn =
  let size = String.length s in
  let found = ref false in
  let p = ref from in
  while (not !found) && !p <= size - 8 do
    let d = Codec.decoder (String.sub s !p 8) in
    let len = Codec.u32 d in
    let crc = Codec.u32 d in
    if
      len <= max_record
      && len <= size - !p - 8
      && Crc32.digest_sub s (!p + 8) len = crc
    then begin
      match Record.decode_string (String.sub s (!p + 8) len) with
      | r -> if r.Record.lsn > after_lsn then found := true
      | exception _ -> ()
    end;
    incr p
  done;
  !found

(* Scan the frames after the header.  Returns (records rev'd, clean end
   offset, last lsn); raises Corrupt on mid-log corruption. *)
let scan_frames s =
  let size = String.length s in
  let records = ref [] in
  let lsn = ref 0 in
  let off = ref header_len in
  let stop = ref false in
  while not !stop do
    let remaining = size - !off in
    if remaining = 0 then stop := true
    else if remaining < 8 then stop := true (* torn frame header *)
    else begin
      let d = Codec.decoder (String.sub s !off 8) in
      let len = Codec.u32 d in
      let crc = Codec.u32 d in
      if
        len > max_record
        || len > remaining - 8 (* torn length/body *)
        || Crc32.digest_sub s (!off + 8) len <> crc (* torn payload *)
      then begin
        if probe_intact_frame_after s ~from:(!off + 1) ~after_lsn:!lsn then
          Page_io.corrupt
            "wal: damaged record at offset %d with intact records after it"
            !off;
        stop := true
      end
      else begin
        (* the CRC vouches for these bytes: from here on, failure to
           decode is corruption, not a torn write *)
        let r = Record.decode_string (String.sub s (!off + 8) len) in
        if r.Record.lsn <> !lsn + 1 then
          Page_io.corrupt "wal: lsn discontinuity (%d after %d)" r.Record.lsn !lsn;
        lsn := r.Record.lsn;
        records := r :: !records;
        off := !off + 8 + len
      end
    end
  done;
  (List.rev !records, !off, !lsn)

let scan_string s =
  ignore (parse_header s);
  let records, clean_end, last_lsn = scan_frames s in
  { records; truncated_bytes = String.length s - clean_end; last_lsn }

let create ~path ~base_len ~base_crc =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let h = header_bytes ~base_len ~base_crc in
  let n = Unix.write_substring fd h 0 (String.length h) in
  if n <> String.length h then failwith "wal: short header write";
  Unix.fsync fd;
  { fd; base_len; base_crc; lsn = 0; closed = false }

let read_all fd =
  let size = (Unix.fstat fd).Unix.st_size in
  let b = Bytes.create size in
  let rec go off =
    if off < size then
      match Unix.read fd b off (size - off) with
      | 0 -> Page_io.corrupt "wal: short read"
      | n -> go (off + n)
  in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  go 0;
  Bytes.unsafe_to_string b

let open_ ?expect_base path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  match
    let s = read_all fd in
    let base_len, base_crc = parse_header s in
    (match expect_base with
    | Some (el, ec) when (el, ec) <> (base_len, base_crc) ->
        Page_io.corrupt "wal: log is bound to a different base snapshot (%d/%08x, expected %d/%08x)"
          base_len base_crc el ec
    | _ -> ());
    let records, clean_end, last_lsn = scan_frames s in
    let truncated = String.length s - clean_end in
    if truncated > 0 then Unix.ftruncate fd clean_end;
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    ( { fd; base_len; base_crc; lsn = last_lsn; closed = false },
      { records; truncated_bytes = truncated; last_lsn } )
  with
  | result -> result
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let append t op =
  if t.closed then invalid_arg "Log.append: closed log";
  let lsn = t.lsn + 1 in
  let payload = Buffer.create 64 in
  Record.encode payload { Record.lsn; op };
  let p = Buffer.contents payload in
  (* the writer's invariant must match what recovery will accept: a
     frame past [max_record] would be applied and acknowledged now, then
     dropped as a torn tail by the next [open_] — acknowledged
     durability silently lost.  Refused before any byte is written, so
     the on-disk log is untouched. *)
  if String.length p > max_record then
    invalid_arg
      (Printf.sprintf "Log.append: %d-byte record exceeds the %d-byte cap"
         (String.length p) max_record);
  let frame = Buffer.create (String.length p + 8) in
  Codec.add_u32 frame (String.length p);
  Codec.add_u32 frame (Crc32.digest p);
  Buffer.add_string frame p;
  let f = Buffer.contents frame in
  let n = Unix.write_substring t.fd f 0 (String.length f) in
  if n <> String.length f then failwith "wal: short append write";
  Unix.fsync t.fd;
  t.lsn <- lsn;
  Xmark_stats.incr "wal_appends";
  Xmark_stats.incr ~by:(String.length f) "wal_bytes";
  lsn

let last_lsn t = t.lsn

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end
