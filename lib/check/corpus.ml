(* Regression corpus: hostile inputs kept on disk and replayed on every
   test run.  A file's extension says which contract it exercises:
   [.xml] → the Sax contract, [.xms] → the snapshot reader, [.xq] → the
   XQuery parser, [.wfr] → the wire frame decoder.  Files come from two
   sources — {!seed} writes the
   hand-constructed cases this subsystem ships with, and the property
   runner adds a shrunk reproducer whenever a campaign finds a
   violation.  [.wal] files check the write-ahead-log recovery scan. *)

module Sax = Xmark_xml.Sax
module Snapshot = Xmark_persist.Snapshot
module Page_io = Xmark_persist.Page_io
module Parser = Xmark_xquery.Parser

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The snapshot contract a corpus file can check without its base
   snapshot on hand: read must either raise Corrupt or decode to a
   payload that re-encodes to exactly the file's bytes (the format's
   write determinism makes re-encoding a faithful identity oracle). *)
let replay_snapshot path =
  match Snapshot.read path with
  | exception Xmark_persist.Corrupt _ -> Ok "corrupt"
  | system, payload ->
      let tmp = Filename.temp_file "xmark_corpus_" ".xms" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          Snapshot.write ~path:tmp ~system payload;
          if read_file tmp = read_file path then Ok "roundtrip"
          else Error "snapshot decoded to a payload that re-encodes differently")

let replay_xq path =
  let text = read_file path in
  match Parser.parse_query text with
  | _ -> Ok "parsed"
  | exception Parser.Error _ -> Ok "syntax-error"

let replay path =
  match Filename.extension path with
  | ".xml" -> Fuzz_sax.contract (read_file path)
  | ".xms" -> replay_snapshot path
  | ".xq" -> replay_xq path
  | ".wfr" -> Fuzz_wire.contract (read_file path)
  | ".wal" -> Fuzz_wal.contract (read_file path)
  | ext -> Error (Printf.sprintf "unknown corpus extension %S" ext)

(* Replay every corpus file; each must satisfy its contract (typed
   rejection or clean round-trip — anything else means a regression
   resurfaced).  Returns (path, label-or-error) per file, sorted. *)
let replay_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f ->
         match Filename.extension f with
         | ".xml" | ".xms" | ".xq" | ".wfr" | ".wal" -> true
         | _ -> false)
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (path, try replay path with e ->
             Error ("uncaught exception: " ^ Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Hand-constructed seed cases.                                        *)

let sax_seed_cases =
  [ ("tag-imbalance", "<site><open_auctions></site>");
    ("unterminated-cdata", "<a><![CDATA[never closed");
    ("undeclared-entity", "<a>&nbsp;</a>");
    ("raw-lt-in-attr", "<a b=\"x<y\"/>");
    ("duplicate-attr", "<a id=\"1\" id=\"2\"/>");
    ("truncated-doc", "<site><regions><africa><item id=\"it");
    ("trailing-garbage", "<a/></b>");
    ("deep-nesting", String.concat "" (List.init 4097 (fun _ -> "<d>"))) ]

let xq_seed_cases =
  [ ("unclosed-flwor", "for $x in /site/people/person return");
    ("bad-token", "let $a := ### return $a");
    ("unbalanced-paren", "count(/site/regions/item");
    ("garbage", "\x00\xff<<>>&&") ]

(* Snapshot seed cases are binary corruptions of a real (tiny) snapshot
   file, constructed so each exercises a distinct reader defense:
   truncation off and on page boundaries, the magic check, the per-page
   CRC (page moved), and the per-section CRC (payload byte flipped and
   the page re-sealed so the page CRC alone would pass). *)
let snapshot_seed_cases () =
  let tmp = Filename.temp_file "xmark_corpus_seed_" ".xms" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let doc = "<site><regions><item id=\"i1\">seed corpus document, long \
                 enough to span several pages when repeated — "
                ^ String.concat " "
                    (List.init 600 (fun i -> Printf.sprintf "word%d" i))
                ^ "</item></regions></site>"
      in
      Snapshot.write ~path:tmp ~system:'G' (Snapshot.Text doc);
      let base = read_file tmp in
      let page = Page_io.page_size in
      let n_pages = String.length base / page in
      assert (n_pages >= 2);
      let truncated_mid = String.sub base 0 (String.length base - (page / 2)) in
      let truncated_page = String.sub base 0 ((n_pages - 1) * page) in
      let bad_magic =
        let b = Bytes.of_string base in
        Bytes.set b 0 'Y';
        Bytes.to_string b
      in
      let transposed =
        (* swap the last two pages: bytes intact, positions wrong *)
        let b = Bytes.of_string base in
        let a_off = (n_pages - 2) * page and b_off = (n_pages - 1) * page in
        let pa = Bytes.sub b a_off page in
        Bytes.blit b b_off b a_off page;
        Bytes.blit pa 0 b b_off page;
        Bytes.to_string b
      in
      let bad_section_digest =
        (* flip a payload byte of the last page, then re-seal it: the
           page CRC passes, so only the section digest can object *)
        let b = Bytes.of_string base in
        let off = (n_pages - 1) * page in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
        Page_io.seal b ~off ~page:(n_pages - 1);
        Bytes.to_string b
      in
      [ ("truncated-mid-page", truncated_mid);
        ("truncated-page-boundary", truncated_page);
        ("bad-magic", bad_magic); ("transposed-pages", transposed);
        ("bad-section-digest", bad_section_digest) ])

(* Wire seed cases: one per framing defense.  Each is a corruption of a
   real encoded frame, so a decoder change that loosens a check replays
   as a corpus failure. *)
let wire_seed_cases () =
  let module Frame = Xmark_wire.Frame in
  let module Codec = Xmark_wire.Wire_codec in
  let module P = Xmark_service.Protocol in
  let base =
    Frame.encode Frame.Request
      (Codec.encode_request (P.request ~client:"corpus" (P.Benchmark 7)))
  in
  let bad_magic =
    let b = Bytes.of_string base in
    Bytes.set b 0 'Y';
    Bytes.to_string b
  in
  (* cut inside the 4-byte length prefix: bytes 6..9 of the header *)
  let truncated_length = String.sub base 0 8 in
  let corrupt_crc =
    let b = Bytes.of_string base in
    let last = Bytes.length b - 1 in
    Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
    Bytes.to_string b
  in
  let oversized =
    (* a syntactically perfect header declaring a payload past the cap:
       must be refused from the length field alone, before allocation *)
    let b = Bytes.create Frame.header_len in
    Bytes.blit_string base 0 b 0 6;
    Bytes.set_int32_be b 6 0x7fff_ffffl;
    Bytes.to_string b
  in
  [ ("wire-bad-magic", bad_magic);
    ("wire-truncated-length", truncated_length);
    ("wire-corrupt-crc", corrupt_crc); ("wire-oversized", oversized) ]

(* WAL seed cases: a pristine two-record log and one corruption per
   recovery defense.  Torn shapes (cut tail, flipped final-record byte,
   oversized length) must truncate; damage recovery can prove is not a
   crash artifact (a forged LSN gap, a broken header, a flipped byte
   mid-log with intact records after it) must raise the typed Corrupt.
   The crafted frames
   reuse the log's own little-endian framing so a format change rebuilds
   them rather than silently invalidating them. *)
let wal_seed_cases () =
  let module Log = Xmark_wal.Log in
  let module Record = Xmark_wal.Record in
  let module Codec = Xmark_persist.Codec in
  let module Crc32 = Xmark_persist.Crc32 in
  let ops =
    [ Record.Place_bid
        { auction = "open_auction0"; person = "person1"; increase = 3.0;
          date = "07/31/2002"; time = "12:00:00" };
      Record.Register_person
        { name = "Corpus Seed"; email = "mailto:seed@example.invalid" } ]
  in
  let tmp = Filename.temp_file "xmark_corpus_seed_" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let log = Log.create ~path:tmp ~base_len:4096 ~base_crc:0xdeadbeef in
      List.iter (fun op -> ignore (Log.append log op)) ops;
      Log.close log;
      let base = read_file tmp in
      let frame record =
        let payload = Buffer.create 64 in
        Record.encode payload record;
        let p = Buffer.contents payload in
        let b = Buffer.create (String.length p + 8) in
        Codec.add_u32 b (String.length p);
        Codec.add_u32 b (Crc32.digest p);
        Buffer.add_string b p;
        Buffer.contents b
      in
      let bad_magic =
        let b = Bytes.of_string base in
        Bytes.set b 0 'Y';
        Bytes.to_string b
      in
      (* cut inside the i64 base-length field of the 25-byte header *)
      let truncated_header = String.sub base 0 12 in
      let torn_tail = String.sub base 0 (String.length base - 5) in
      let flipped_record =
        (* flip one payload byte of the last record: its frame CRC now
           disagrees, so recovery must stop and truncate there *)
        let b = Bytes.of_string base in
        let last = Bytes.length b - 3 in
        Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x20));
        Bytes.to_string b
      in
      let midlog_flip =
        (* flip a payload byte of the FIRST record while the second
           stays intact: a crashed writer cannot damage a frame it
           already fsynced past, so recovery must raise the typed
           Corrupt rather than silently truncate the intact suffix
           (offset = 25-byte header + 8-byte frame header + 2) *)
        let b = Bytes.of_string base in
        let off = 25 + 8 + 2 in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x04));
        Bytes.to_string b
      in
      let lsn_gap =
        (* a perfectly sealed frame whose LSN skips ahead: no crash can
           write this, so it must be Corrupt, not a torn tail *)
        base
        ^ frame
            { Record.lsn = 7;
              op = Record.Close_auction
                     { auction = "open_auction0"; date = "07/31/2002" } }
      in
      let oversized =
        (* a frame header declaring a payload past the 1 MiB record cap:
           must stop from the length field alone *)
        let b = Buffer.create 8 in
        Codec.add_u32 b ((1 lsl 20) + 1);
        Codec.add_u32 b 0;
        base ^ Buffer.contents b
      in
      [ ("wal-pristine", base); ("wal-bad-magic", bad_magic);
        ("wal-truncated-header", truncated_header);
        ("wal-torn-tail", torn_tail); ("wal-flipped-record", flipped_record);
        ("wal-midlog-flip", midlog_flip); ("wal-lsn-gap", lsn_gap);
        ("wal-oversized-length", oversized) ])

let seed dir =
  Property.mkdir_p dir;
  let put name ext bytes =
    let path = Filename.concat dir (Printf.sprintf "seed-%s.%s" name ext) in
    write_file path bytes;
    path
  in
  List.map (fun (n, s) -> put n "xml" s) sax_seed_cases
  @ List.map (fun (n, s) -> put n "xq" s) xq_seed_cases
  @ List.map (fun (n, s) -> put n "xms" s) (snapshot_seed_cases ())
  @ List.map (fun (n, s) -> put n "wfr" s) (wire_seed_cases ())
  @ List.map (fun (n, s) -> put n "wal" s) (wal_seed_cases ())
