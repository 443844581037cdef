(* The persistence subsystem: CRC32 against the published check vector,
   the pager's LRU accounting, the typed [Corrupt] error on every way a
   file can be damaged, full session round-trips for the relational
   systems (B and C), and byte-determinism of snapshot files across
   independent loads. *)

module P = Xmark_persist
module Runner = Xmark_core.Runner

let temp_snapshot () =
  let path = Filename.temp_file "xmark_test" ".xms" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Xmark_persist.Corrupt" what
  | exception P.Corrupt _ -> ()

(* --- CRC32 ---------------------------------------------------------------- *)

let test_crc32_check_vector () =
  (* the IEEE/zlib polynomial's standard check value *)
  Alcotest.(check int)
    "crc32(\"123456789\")" 0xCBF43926
    (P.Crc32.digest "123456789")

let test_crc32_empty () =
  Alcotest.(check int) "crc32(\"\")" 0 (P.Crc32.digest "")

let test_crc32_chaining () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let split = 17 in
  let chained =
    P.Crc32.update
      (P.Crc32.update 0 s 0 split)
      s split
      (String.length s - split)
  in
  Alcotest.(check int) "incremental update equals one-shot digest"
    (P.Crc32.digest s) chained;
  Alcotest.(check int) "digest_sub of a slice"
    (P.Crc32.digest (String.sub s 4 10))
    (P.Crc32.digest_sub s 4 10)

(* --- pager ---------------------------------------------------------------- *)

(* A Text snapshot whose text section spans many pages, giving the pager
   something real (and CRC-verified) to cache. *)
let multi_page_snapshot () =
  let path = temp_snapshot () in
  let doc = String.init 40_000 (fun i -> Char.chr (32 + (i mod 95))) in
  P.Snapshot.write ~path ~system:'G' (P.Snapshot.Text doc);
  path

let test_pager_lru () =
  let pager = P.Pager.open_file ~capacity:2 (multi_page_snapshot ()) in
  Fun.protect
    ~finally:(fun () -> P.Pager.close pager)
    (fun () ->
      Alcotest.(check bool) "snapshot spans enough pages" true
        (P.Pager.page_count pager >= 4);
      ignore (P.Pager.page pager 1);
      ignore (P.Pager.page pager 2);
      ignore (P.Pager.page pager 1);
      ignore (P.Pager.page pager 3);
      let hits, misses, evictions = P.Pager.stats pager in
      Alcotest.(check int) "hits" 1 hits;
      Alcotest.(check int) "misses" 3 misses;
      Alcotest.(check int) "evictions (page 2 was least recent)" 1 evictions;
      Alcotest.(check (list int)) "cache holds MRU-first" [ 3; 1 ]
        (P.Pager.cached pager);
      ignore (P.Pager.page pager 2);
      Alcotest.(check (list int)) "page 1 evicted next" [ 2; 3 ]
        (P.Pager.cached pager))

(* Four domains hammer one pager — with a capacity squeeze forcing
   constant eviction — and every section they read must be
   byte-identical to a quiet sequential read.  The counters must add up:
   every access is classified exactly once as a hit or a miss. *)
let test_pager_concurrent () =
  let path = multi_page_snapshot () in
  let expected =
    let pager = P.Pager.open_file path in
    Fun.protect
      ~finally:(fun () -> P.Pager.close pager)
      (fun () ->
        Array.init (P.Pager.page_count pager) (fun i ->
            Bytes.to_string (P.Pager.page pager i)))
  in
  let npages = Array.length expected in
  let pager = P.Pager.open_file ~capacity:2 path in
  Fun.protect
    ~finally:(fun () -> P.Pager.close pager)
    (fun () ->
      let rounds = 25 in
      let reader d () =
        let bad = ref 0 in
        for r = 0 to rounds - 1 do
          for k = 0 to npages - 1 do
            (* different domains walk the pages in different orders, so
               eviction interleaves adversarially *)
            let i = (k * (d + 1) + r) mod npages in
            if Bytes.to_string (P.Pager.page pager i) <> expected.(i) then incr bad
          done
        done;
        !bad
      in
      let domains = List.init 4 (fun d -> Domain.spawn (reader d)) in
      let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
      Alcotest.(check int) "all concurrent reads byte-identical" 0 bad;
      let hits, misses, evictions = P.Pager.stats pager in
      Alcotest.(check int) "hits + misses = total accesses"
        (4 * rounds * npages) (hits + misses);
      Alcotest.(check bool) "every page missed at least once" true
        (misses >= npages);
      (* capacity 2: the first two misses fill the pool, every later
         miss evicts exactly one page *)
      Alcotest.(check int) "evictions = misses - capacity" (misses - 2) evictions)

let test_pager_out_of_range () =
  let pager = P.Pager.open_file (multi_page_snapshot ()) in
  Fun.protect
    ~finally:(fun () -> P.Pager.close pager)
    (fun () ->
      expect_corrupt "past-the-end page" (fun () ->
          P.Pager.page pager (P.Pager.page_count pager)))

(* --- corrupt files -------------------------------------------------------- *)

let patch path ~off byte =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s off byte;
  write_file path (Bytes.to_string s)

let test_corrupt_truncated () =
  let path = multi_page_snapshot () in
  let whole = read_file path in
  (* cut mid-page: not a whole number of pages *)
  write_file path (String.sub whole 0 10_000);
  expect_corrupt "mid-page truncation" (fun () -> P.Snapshot.read path);
  (* cut at a page boundary: pages verify but the header promises more *)
  write_file path (String.sub whole 0 (2 * P.Page_io.page_size));
  expect_corrupt "page-aligned truncation" (fun () -> P.Snapshot.read path)

let test_corrupt_bad_magic () =
  let path = multi_page_snapshot () in
  patch path ~off:0 'Z';
  expect_corrupt "bad magic" (fun () -> P.Snapshot.read path)

let test_corrupt_bad_version () =
  let path = multi_page_snapshot () in
  patch path ~off:8 '\xee';
  expect_corrupt "unsupported version" (fun () -> P.Snapshot.read path)

let test_corrupt_flipped_bit () =
  let path = multi_page_snapshot () in
  let off = (2 * P.Page_io.page_size) + 137 in
  let orig = (read_file path).[off] in
  patch path ~off (Char.chr (Char.code orig lxor 0x10));
  expect_corrupt "flipped payload bit" (fun () -> P.Snapshot.read path)

let test_empty_file () =
  let path = temp_snapshot () in
  write_file path "";
  expect_corrupt "empty file" (fun () -> P.Snapshot.read path)

(* Seeded sweep: every byte of the format sits under a CRC (page
   payloads, trailers, header, directory), so ANY single-bit flip must
   surface as the typed [Corrupt] — decoding to a different document,
   or crashing some other way, would be silent corruption. *)
let test_bit_flip_sweep () =
  let doc = Xmark_xmlgen.Generator.to_string ~factor:0.01 () in
  let session = Runner.load ~source:(`Text doc) Runner.C in
  let path = temp_snapshot () in
  Runner.save_snapshot session path;
  let base = read_file path in
  let g = Xmark_prng.Prng.create ~seed:0xF11BL () in
  let flips = 128 in
  for k = 1 to flips do
    let i = Xmark_prng.Prng.int g (String.length base) in
    let bit = Xmark_prng.Prng.int g 8 in
    let b = Bytes.of_string base in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    write_file path (Bytes.to_string b);
    match P.Snapshot.read path with
    | _ ->
        Alcotest.failf "flip %d (byte %d bit %d) decoded without Corrupt" k i
          bit
    | exception P.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "flip %d (byte %d bit %d) raised %s, not Corrupt" k i
          bit (Printexc.to_string e)
  done

(* --- session round-trips -------------------------------------------------- *)

let document = lazy (Xmark_xmlgen.Generator.to_string ~factor:0.01 ())

let all_queries = List.init 20 (fun i -> i + 1)

let round_trip sys =
  let doc = Lazy.force document in
  let fresh = Runner.load ~source:(`Text doc) sys in
  let path = temp_snapshot () in
  Runner.save_snapshot fresh path;
  let restored = Runner.load ~source:(`Snapshot path) sys in
  List.iter
    (fun q ->
      let a = Runner.run_session fresh q in
      let b = Runner.run_session restored q in
      Alcotest.(check string)
        (Printf.sprintf "%s Q%d canonical result" (Runner.system_name sys) q)
        (Runner.canonical a) (Runner.canonical b);
      Alcotest.(check int)
        (Printf.sprintf "%s Q%d metadata accesses" (Runner.system_name sys) q)
        a.Runner.metadata_accesses b.Runner.metadata_accesses)
    all_queries

let test_round_trip_b () = round_trip Runner.B

let test_round_trip_c () = round_trip Runner.C

let test_round_trip_dom () =
  (* System D snapshots the parsed DOM; a restore must answer like the
     original without re-parsing the text *)
  let doc = Lazy.force document in
  let fresh = Runner.load ~source:(`Text doc) Runner.D in
  let path = temp_snapshot () in
  Runner.save_snapshot fresh path;
  let restored = Runner.load ~source:(`Snapshot path) Runner.D in
  List.iter
    (fun q ->
      Alcotest.(check string)
        (Printf.sprintf "System D Q%d canonical result" q)
        (Runner.canonical (Runner.run_session fresh q))
        (Runner.canonical (Runner.run_session restored q)))
    [ 1; 8; 10; 13; 20 ]

let test_wrong_system () =
  let doc = Lazy.force document in
  let fresh = Runner.load ~source:(`Text doc) Runner.C in
  let path = temp_snapshot () in
  Runner.save_snapshot fresh path;
  match Runner.load ~source:(`Snapshot path) Runner.B with
  | _ -> Alcotest.fail "System C snapshot loaded into System B"
  | exception Runner.Unsupported _ -> ()

(* --- snapshot determinism ------------------------------------------------- *)

(* Two independent loads of one document write byte-identical snapshots,
   and a session restored from one of them writes the same bytes again:
   the image carries first-encounter orders, never a hashtable's. *)
let determinism sys =
  let doc = Lazy.force document in
  let save session =
    let path = temp_snapshot () in
    Runner.save_snapshot session path;
    path
  in
  let first = save (Runner.load ~source:(`Text doc) sys) in
  let second = save (Runner.load ~source:(`Text doc) sys) in
  let restored = save (Runner.load ~source:(`Snapshot first) sys) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: two independent loads write byte-identical snapshots"
       (Runner.system_name sys))
    true
    (read_file first = read_file second);
  Alcotest.(check bool)
    (Printf.sprintf "%s: a restored session writes the same bytes"
       (Runner.system_name sys))
    true
    (read_file first = read_file restored)

(* System B registers its attribute relations in hashtable order; a
   restore must refill the hashtable so that order, and with it every
   catalog scan's metadata count, matches a fresh load's. *)
let test_determinism_b () =
  determinism Runner.B;
  let module B = Xmark_store.Backend_shredded in
  let names t =
    List.map Xmark_relational.Table.name (Xmark_relational.Catalog.tables (B.catalog t))
  in
  let fresh = B.load_string (Lazy.force document) in
  Alcotest.(check (list string))
    "restored catalog registers relations in the fresh load's order" (names fresh)
    (names (B.of_image (B.to_image fresh)))

let test_determinism_c () = determinism Runner.C

let () =
  Alcotest.run "persist"
    [
      ( "crc32",
        [
          Alcotest.test_case "check vector" `Quick test_crc32_check_vector;
          Alcotest.test_case "empty" `Quick test_crc32_empty;
          Alcotest.test_case "chaining" `Quick test_crc32_chaining;
        ] );
      ( "pager",
        [
          Alcotest.test_case "lru accounting" `Quick test_pager_lru;
          Alcotest.test_case "out of range" `Quick test_pager_out_of_range;
          Alcotest.test_case "4-domain concurrent reads" `Quick test_pager_concurrent;
        ] );
      ( "corrupt",
        [
          Alcotest.test_case "truncated" `Quick test_corrupt_truncated;
          Alcotest.test_case "bad magic" `Quick test_corrupt_bad_magic;
          Alcotest.test_case "bad version" `Quick test_corrupt_bad_version;
          Alcotest.test_case "flipped bit" `Quick test_corrupt_flipped_bit;
          Alcotest.test_case "empty file" `Quick test_empty_file;
          Alcotest.test_case "seeded bit-flip sweep" `Quick test_bit_flip_sweep;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "system B, 20 queries" `Quick test_round_trip_b;
          Alcotest.test_case "system C, 20 queries" `Quick test_round_trip_c;
          Alcotest.test_case "system D (DOM payload)" `Quick test_round_trip_dom;
          Alcotest.test_case "wrong system rejected" `Quick test_wrong_system;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "system B bytes" `Quick test_determinism_b;
          Alcotest.test_case "system C bytes" `Quick test_determinism_c;
        ] );
    ]
