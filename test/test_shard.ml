(* Sharded execution: the partitioner slices deterministically, the
   manifest binds shard snapshots tamper-evidently, and scatter-gather
   over K shards answers all twenty queries byte-identically to the
   single store — on every system, at K in {1, 2, 4}.  A worker killed
   mid-scatter surfaces as a typed [Unavailable] with no partial answer
   leaked. *)

module Runner = Xmark_core.Runner
module Partitioner = Xmark_shard.Partitioner
module Manifest = Xmark_shard.Manifest
module Scatter = Xmark_shard.Scatter
module Server = Xmark_service.Server
module P = Xmark_service.Protocol
module Wire = Xmark_wire
module Dom = Xmark_xml.Dom

let factor = 0.1

let dom = lazy (Xmark_xmlgen.Generator.to_dom ~factor ())

let tmpdir =
  let d = Filename.temp_file "xmark_shard_test" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  at_exit (fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
        (try Sys.readdir d with Sys_error _ -> [||]);
      try Unix.rmdir d with Unix.Unix_error _ -> ());
  d

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- wire scatter scenario: runs at module init (fork before threads) ---- *)

type wire_outcome = {
  wo_q1_expected : string;  (** single-store canonical for Q1 *)
  wo_q1 : (Scatter.answer, P.error) result;
  wo_q10_expected : string;  (** Q10 exercises the broadcast join path *)
  wo_q10 : (Scatter.answer, P.error) result;
  wo_after_kill : (Scatter.answer, P.error) result;
      (** Q1 after SIGKILLing shard 1's worker *)
  wo_still_dead : (Scatter.answer, P.error) result;
      (** a later query: the redial finds the corpse again, still typed *)
}

let wire_outcome =
  (* small store: this scenario tests the transport + failure contract,
     not conformance (the factor-0.1 matrix below does that) *)
  let doc = Xmark_xmlgen.Generator.to_dom ~factor:0.01 () in
  let single = Runner.load ~source:(`Dom doc) Runner.D in
  let expected q = Runner.canonical (Runner.run_session single q) in
  let p = Partitioner.partition ~k:2 doc in
  let make_server i =
    Server.create ~shard:i
      (Runner.load
         ~source:(`Dom p.Partitioner.shards.(i).Partitioner.root)
         Runner.D)
  in
  let front = Wire.Addr.Unix_sock (Filename.concat tmpdir "shard.front") in
  let fleet = Wire.Fleet.start ~workers:2 ~make_server front in
  Fun.protect
    ~finally:(fun () -> Wire.Fleet.stop fleet)
    (fun () ->
      let sc =
        Scatter.create
          (List.map (fun a -> Scatter.Remote a) (Wire.Fleet.worker_addrs fleet))
      in
      Fun.protect
        ~finally:(fun () -> Scatter.close sc)
        (fun () ->
          let wo_q1 = Scatter.run sc 1 in
          let wo_q10 = Scatter.run sc 10 in
          Unix.kill (List.nth (Wire.Fleet.pids fleet) 1) Sys.sigkill;
          Unix.sleepf 0.1;
          let wo_after_kill = Scatter.run sc 1 in
          let wo_still_dead = Scatter.run sc 6 in
          { wo_q1_expected = expected 1;
            wo_q1;
            wo_q10_expected = expected 10;
            wo_q10;
            wo_after_kill;
            wo_still_dead }))

let partitions = Hashtbl.create 4

let partition k =
  match Hashtbl.find_opt partitions k with
  | Some p -> p
  | None ->
      let p = Partitioner.partition ~k (Lazy.force dom) in
      Hashtbl.add partitions k p;
      p

let singles = Hashtbl.create 8

let single sys =
  match Hashtbl.find_opt singles sys with
  | Some s -> s
  | None ->
      let s = Runner.load ~source:(`Dom (Lazy.force dom)) sys in
      Hashtbl.add singles sys s;
      s

(* K in-process legs, one shard-scoped server per shard of [sys] *)
let scatter_for sys k =
  let p = partition k in
  Scatter.create
    (Array.to_list
       (Array.mapi
          (fun i (sh : Partitioner.shard) ->
            Scatter.Local
              (Server.create ~shard:i (Runner.load ~source:(`Dom sh.Partitioner.root) sys)))
          p.Partitioner.shards))

(* the single-store reference, computed once per (system, query) and
   shared across the K cells — at factor 0.1 the reference pass is the
   dominant cost for the slower backends *)
let references = Hashtbl.create 64

let reference sys q =
  match Hashtbl.find_opt references (sys, q) with
  | Some r -> r
  | None ->
      let outcome = Runner.run_session (single sys) q in
      let r = (List.length outcome.Runner.result, Runner.canonical outcome) in
      Hashtbl.add references (sys, q) r;
      r

(* --- partitioner invariants ---------------------------------------------- *)

let test_partition_ranges () =
  let p = partition 4 in
  Alcotest.(check int) "4 shards" 4 (Array.length p.Partitioner.shards);
  (* ranges tile [0, total) per tag *)
  List.iter
    (fun (tag, total) ->
      let pos = ref 0 in
      Array.iter
        (fun (sh : Partitioner.shard) ->
          let start, count = List.assoc tag sh.Partitioner.ranges in
          Alcotest.(check int) (tag ^ " contiguous") !pos start;
          pos := !pos + count)
        p.Partitioner.shards;
      Alcotest.(check int) (tag ^ " covers all") total !pos)
    p.Partitioner.totals;
  (* balanced: sizes differ by at most one *)
  let sizes =
    Array.to_list
      (Array.map
         (fun (sh : Partitioner.shard) ->
           List.fold_left (fun a (_, (_, c)) -> a + c) 0 sh.Partitioner.ranges)
         p.Partitioner.shards)
  in
  let mn = List.fold_left min max_int sizes
  and mx = List.fold_left max 0 sizes in
  Alcotest.(check bool) "balanced" true (mx - mn <= 1)

let test_partition_union () =
  (* the shard union holds exactly the original document's nodes *)
  let p = partition 3 in
  let count_nodes root = Dom.size root in
  let original = count_nodes (Lazy.force dom) in
  let skeleton k =
    (* per extra shard: site + 6 sections + 6 continents *)
    (k - 1) * 13
  in
  let total =
    Array.fold_left
      (fun a (sh : Partitioner.shard) -> a + count_nodes sh.Partitioner.root)
      0 p.Partitioner.shards
  in
  Alcotest.(check int) "node union" (original + skeleton 3) total

let test_partition_deterministic () =
  let serialize p =
    Array.to_list
      (Array.map
         (fun (sh : Partitioner.shard) ->
           Xmark_xml.Canonical.of_node sh.Partitioner.root)
         p.Partitioner.shards)
  in
  let a = serialize (Partitioner.partition ~k:3 (Lazy.force dom)) in
  let b =
    serialize
      (Partitioner.partition ~k:3 (Xmark_xmlgen.Generator.to_dom ~factor ()))
  in
  Alcotest.(check (list string)) "same seed, same shards" a b

let test_partition_rejects () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Partitioner.partition: k must be >= 1")
    (fun () -> ignore (Partitioner.partition ~k:0 (Lazy.force dom)));
  Alcotest.check_raises "not a site"
    (Invalid_argument "Partitioner.partition: root must be a <site> element")
    (fun () -> ignore (Partitioner.partition ~k:2 (Dom.element "people")))

(* --- manifest: tamper-evident shard map ----------------------------------- *)

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Xmark_persist.Corrupt _ -> ()

(* a manifest fixture on disk: 3 "snapshot" files (the manifest binds
   bytes, it never parses them) + the manifest of a real partition *)
let manifest_fixture =
  lazy
    (let dir = Filename.concat tmpdir "manifest.d" in
     Unix.mkdir dir 0o700;
     at_exit (fun () ->
         Array.iter
           (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
           (try Sys.readdir dir with Sys_error _ -> [||]);
         try Unix.rmdir dir with Unix.Unix_error _ -> ());
     let files =
       List.init 3 (fun i ->
           let f = Printf.sprintf "shard-%d.xms" i in
           write_file (Filename.concat dir f)
             (String.concat "-" (List.init (50 + i) string_of_int));
           f)
     in
     let m = Manifest.of_partition ~files ~dir (partition 3) in
     (dir, m))

let test_manifest_roundtrip () =
  let dir, m = Lazy.force manifest_fixture in
  Manifest.write ~dir m;
  let m' = Manifest.read ~dir in
  Alcotest.(check string) "read = written"
    (Manifest.encode m) (Manifest.encode m');
  Alcotest.(check int) "3 shards" 3 (Array.length m'.Manifest.shards);
  Alcotest.(check (list (pair string int))) "catalog union survives"
    (partition 3).Partitioner.totals m'.Manifest.totals;
  (* decode . encode is the identity on the wire form *)
  Alcotest.(check string) "re-encode identical"
    (Manifest.encode m)
    (Manifest.encode (Manifest.decode (Manifest.encode m)))

let test_manifest_bit_flips () =
  let _, m = Lazy.force manifest_fixture in
  let good = Manifest.encode m in
  (* every single-byte flip — magic, version, counts, payload, trailing
     CRC — must surface as the typed Corrupt, never decode or leak *)
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string good in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      expect_corrupt (Printf.sprintf "flip at byte %d" i) (fun () ->
          Manifest.decode (Bytes.to_string b)))
    good;
  expect_corrupt "truncated" (fun () ->
      Manifest.decode (String.sub good 0 (String.length good - 1)));
  expect_corrupt "empty" (fun () -> Manifest.decode "")

(* hand-craft manifest bytes with a correct trailing CRC, bypassing the
   encoder's own partition check — the decoder must still reject maps
   that are not partitions *)
let craft ~k ~totals ~entries =
  let b = Buffer.create 256 in
  let u32 v = Buffer.add_int32_be b (Int32.of_int v) in
  let str s =
    u32 (String.length s);
    Buffer.add_string b s
  in
  Buffer.add_string b "XMF\x01";
  Buffer.add_char b '\x01';
  u32 k;
  u32 (List.length totals);
  List.iter
    (fun (tag, n) ->
      str tag;
      u32 n)
    totals;
  List.iter
    (fun (file, bytes_, crc, ranges) ->
      str file;
      u32 bytes_;
      u32 crc;
      List.iter
        (fun (s, c) ->
          u32 s;
          u32 c)
        ranges)
    entries;
  let body = Buffer.contents b in
  u32 (Xmark_persist.Crc32.digest_sub body 4 (String.length body - 4));
  Buffer.contents b

let test_manifest_rejects_non_partitions () =
  let entry ranges i = (Printf.sprintf "s%d.xms" i, 10, 0, ranges) in
  (* control: the crafted form matches the real wire format *)
  let good =
    craft ~k:2 ~totals:[ ("item", 4) ]
      ~entries:[ entry [ (0, 2) ] 0; entry [ (2, 2) ] 1 ]
  in
  let m = Manifest.decode good in
  Alcotest.(check int) "control decodes" 2 (Array.length m.Manifest.shards);
  expect_corrupt "overlapping ranges" (fun () ->
      Manifest.decode
        (craft ~k:2 ~totals:[ ("item", 4) ]
           ~entries:[ entry [ (0, 3) ] 0; entry [ (2, 2) ] 1 ]));
  expect_corrupt "gap in coverage" (fun () ->
      Manifest.decode
        (craft ~k:2 ~totals:[ ("item", 4) ]
           ~entries:[ entry [ (0, 1) ] 0; entry [ (2, 2) ] 1 ]));
  expect_corrupt "short coverage" (fun () ->
      Manifest.decode
        (craft ~k:2 ~totals:[ ("item", 5) ]
           ~entries:[ entry [ (0, 2) ] 0; entry [ (2, 2) ] 1 ]));
  (* the encoder refuses to produce what the decoder would reject *)
  let bad =
    { Manifest.shards =
        [| { Manifest.file = "a.xms"; bytes = 1; crc = 0;
             ranges = [ ("item", (0, 3)) ] };
           { Manifest.file = "b.xms"; bytes = 1; crc = 0;
             ranges = [ ("item", (2, 2)) ] } |];
      totals = [ ("item", 4) ] }
  in
  match Manifest.encode bad with
  | _ -> Alcotest.fail "encode accepted an overlapping map"
  | exception Invalid_argument _ -> ()

let test_manifest_validate_binds_files () =
  let dir, m = Lazy.force manifest_fixture in
  Manifest.validate ~dir m;
  let victim = Filename.concat dir m.Manifest.shards.(1).Manifest.file in
  let original = In_channel.with_open_bin victim In_channel.input_all in
  Fun.protect
    ~finally:(fun () -> write_file victim original)
    (fun () ->
      (* same length, one byte changed: CRC mismatch *)
      let b = Bytes.of_string original in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      write_file victim (Bytes.to_string b);
      expect_corrupt "flipped snapshot byte" (fun () ->
          Manifest.validate ~dir m);
      (* wrong length *)
      write_file victim (original ^ "x");
      expect_corrupt "grown snapshot" (fun () -> Manifest.validate ~dir m);
      (* missing file *)
      Sys.remove victim;
      expect_corrupt "missing snapshot" (fun () -> Manifest.validate ~dir m))

(* --- scatter over in-process legs ----------------------------------------- *)

let test_scatter_local k () =
  let sc = scatter_for Runner.D k in
  Alcotest.(check int) "shard count" k (Scatter.shards sc);
  for q = 1 to 20 do
    let label = Printf.sprintf "scatter K=%d Q%d" k q in
    let items, expected = reference Runner.D q in
    match Scatter.run sc q with
    | Error e -> Alcotest.failf "%s: %s" label (Server.error_to_string e)
    | Ok a ->
        Alcotest.(check int) (label ^ " items") items a.Scatter.items;
        Alcotest.(check string) (label ^ " canonical") expected
          a.Scatter.canonical;
        Alcotest.(check string) (label ^ " digest")
          (Digest.to_hex (Digest.string a.Scatter.canonical))
          a.Scatter.digest
  done;
  match Scatter.run sc 21 with
  | Error (P.Bad_request _) -> ()
  | Ok _ -> Alcotest.fail "Q21 answered"
  | Error e -> Alcotest.failf "Q21: %s" (Server.error_to_string e)

let test_scatter_create_rejects () =
  (match Scatter.create [] with
  | _ -> Alcotest.fail "empty leg list accepted"
  | exception Invalid_argument _ -> ());
  let p = partition 2 in
  let session i =
    Runner.load
      ~source:(`Dom p.Partitioner.shards.(i).Partitioner.root)
      Runner.D
  in
  (match Scatter.create [ Scatter.Local (Server.create (session 0)) ] with
  | _ -> Alcotest.fail "unscoped server accepted as a leg"
  | exception Invalid_argument _ -> ());
  match Scatter.create [ Scatter.Local (Server.create ~shard:1 (session 1)) ] with
  | _ -> Alcotest.fail "leg 0 accepted a shard-1 server"
  | exception Invalid_argument _ -> ()

(* --- scatter over the wire: digests + the kill contract -------------------- *)

let check_wire_answer label expected = function
  | Error e -> Alcotest.failf "%s: %s" label (Server.error_to_string e)
  | Ok a ->
      Alcotest.(check string) (label ^ " canonical") expected
        a.Scatter.canonical;
      Alcotest.(check string) (label ^ " digest")
        (Digest.to_hex (Digest.string expected))
        a.Scatter.digest

let test_wire_scatter_digests () =
  check_wire_answer "Q1 over 2 workers" wire_outcome.wo_q1_expected
    wire_outcome.wo_q1;
  check_wire_answer "Q10 (broadcast join) over 2 workers"
    wire_outcome.wo_q10_expected wire_outcome.wo_q10

let test_wire_scatter_kill () =
  (match wire_outcome.wo_after_kill with
  | Error (P.Unavailable _) -> ()
  | Ok _ -> Alcotest.fail "a dead shard leaked a partial answer"
  | Error e ->
      Alcotest.failf "expected Unavailable, got %s" (Server.error_to_string e));
  match wire_outcome.wo_still_dead with
  | Error (P.Unavailable _) -> ()
  | Ok _ -> Alcotest.fail "redial of a corpse leaked a partial answer"
  | Error e ->
      Alcotest.failf "expected Unavailable, got %s" (Server.error_to_string e)

(* --- scatter-gather digest equality -------------------------------------- *)

let join_queries = [ 8; 9; 10; 11; 12 ]

let check_all_queries sys k =
  let sc = scatter_for sys k in
  for q = 1 to 20 do
    let label = Printf.sprintf "%s K=%d Q%d" (Runner.system_name sys) k q in
    match Scatter.run sc q with
    | Error (P.Unsupported _) when sys = Runner.C && List.mem q join_queries ->
        (* C executes prepared plans only; the join gathers need ad-hoc
           side-queries, so sharded C surfaces its existing limitation *)
        ()
    | Error e -> Alcotest.failf "%s: %s" label (Server.error_to_string e)
    | Ok _ when sys = Runner.C && List.mem q join_queries ->
        Alcotest.failf "%s: expected Unsupported" label
    | Ok a ->
        let items, expected = reference sys q in
        Alcotest.(check int) (label ^ " items") items a.Scatter.items;
        if not (String.equal expected a.Scatter.canonical) then
          Alcotest.failf "%s: canonical mismatch\nexpected: %s\ngot:      %s" label
            (String.sub expected 0 (min 400 (String.length expected)))
            (String.sub a.Scatter.canonical 0 (min 400 (String.length a.Scatter.canonical)))
  done

(* K = 4 is a system's last digest case: its single store and
   references are dead after it, so drop them rather than hold all seven
   factor-0.1 stores until exit. *)
let test_digests sys k () =
  check_all_queries sys k;
  if k = 4 then begin
    Hashtbl.remove singles sys;
    for q = 1 to 20 do
      Hashtbl.remove references (sys, q)
    done;
    Gc.full_major ()
  end

let () =
  Alcotest.run "shard"
    [
      ( "partitioner",
        [
          Alcotest.test_case "ranges tile" `Quick test_partition_ranges;
          Alcotest.test_case "node union exact" `Quick test_partition_union;
          Alcotest.test_case "deterministic" `Quick test_partition_deterministic;
          Alcotest.test_case "typed rejections" `Quick test_partition_rejects;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "round-trip on disk" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "every bit flip is Corrupt" `Quick
            test_manifest_bit_flips;
          Alcotest.test_case "non-partitions rejected" `Quick
            test_manifest_rejects_non_partitions;
          Alcotest.test_case "validate binds the snapshot files" `Quick
            test_manifest_validate_binds_files;
        ] );
      ( "scatter",
        [
          Alcotest.test_case "local legs K=1" `Quick (test_scatter_local 1);
          Alcotest.test_case "local legs K=2" `Quick (test_scatter_local 2);
          Alcotest.test_case "local legs K=4" `Quick (test_scatter_local 4);
          Alcotest.test_case "leg validation" `Quick
            test_scatter_create_rejects;
          Alcotest.test_case "wire digests (2 workers)" `Quick
            test_wire_scatter_digests;
          Alcotest.test_case "worker kill is typed, no partial leak" `Quick
            test_wire_scatter_kill;
        ] );
      (* the factor-0.1 conformance matrix: sharded K in {2, 4} must be
         byte-identical to the single store on every backend.  K=1 is
         covered (also at 0.1) by the scatter group above — dropping it
         here keeps the matrix from paying a third full pass per
         system. *)
      ( "digests",
        List.concat_map
          (fun sys ->
            List.map
              (fun k ->
                Alcotest.test_case
                  (Printf.sprintf "%s K=%d" (Runner.system_name sys) k)
                  `Quick (test_digests sys k))
              [ 2; 4 ])
          Runner.all_systems );
    ]
