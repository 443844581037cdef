(* Fuzz target: the snapshot reader on randomly corrupted files.

   Contract under test — for ANY corruption of a valid snapshot file:
   - [Snapshot.read] returns normally or raises the typed
     {!Xmark_persist.Corrupt}.  Any other exception is a violation.
   - If it returns, the decoded payload must be the ORIGINAL one: a
     mutation either trips a checksum or leaves the decoded bytes
     untouched (it hit slack space — page trailers' unused tail, etc.).
     Silently decoding to a different document is the one unforgivable
     outcome for checksummed storage.

   The identity oracle uses the format's own write determinism: the same
   payload encodes to byte-identical files on every write, so
   re-encoding the decoded payload and comparing the digest against the
   base file's detects any drift without a payload-specific comparator. *)

module Prng = Xmark_prng.Prng
module Snapshot = Xmark_persist.Snapshot

type base = { b_label : string; b_bytes : string; b_digest : string }

type case = { base : base; bytes : string }

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

let with_temp ~tag f =
  let path = Filename.temp_file "xmark_fuzz_" ("_" ^ tag ^ ".xms") in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let encode ~system payload =
  with_temp ~tag:"enc" (fun path ->
      Snapshot.write ~path ~system payload;
      read_file path)

(* Base snapshots spanning every payload constructor.  The relational
   bases come from real bulkloads at a tiny scale factor; the DOM/Text
   bases from the deterministic document generator, so the whole fleet
   is a pure function of the campaign seed. *)
let make_bases g =
  let doc1 = Gen.doc g in
  let doc2 = Gen.doc g in
  let of_bytes label bytes =
    { b_label = label; b_bytes = bytes;
      b_digest = Digest.to_hex (Digest.string bytes) }
  in
  let text_base =
    of_bytes "text"
      (encode ~system:'G' (Snapshot.Text (Xmark_xml.Serialize.to_string doc1)))
  in
  let dom_base = of_bytes "dom" (encode ~system:'A' (Snapshot.Dom doc2)) in
  let session_base system label =
    let text = Xmark_xmlgen.Generator.to_string ~factor:0.002 () in
    let session = Xmark_core.Runner.load ~source:(`Text text) system in
    with_temp ~tag:label (fun path ->
        Xmark_core.Runner.save_snapshot session path;
        of_bytes label (read_file path))
  in
  [| text_base; dom_base;
     session_base Xmark_core.Runner.B "relational-b";
     session_base Xmark_core.Runner.C "relational-c" |]

let digest_of_payload ~system payload =
  Digest.to_hex (Digest.string (encode ~system payload))

let contract case =
  with_temp ~tag:"case" (fun path ->
      write_file path case.bytes;
      match Snapshot.read path with
      | exception Xmark_persist.Corrupt _ -> Ok ("corrupt-" ^ case.base.b_label)
      | system, payload ->
          if digest_of_payload ~system payload = case.base.b_digest then
            Ok ("roundtrip-" ^ case.base.b_label)
          else
            Error
              (Printf.sprintf
                 "mutated %s snapshot decoded to a different payload \
                  without raising Corrupt"
                 case.base.b_label))

let gen bases ~max_bytes g =
  let base = Prng.pick g bases in
  let clamp s =
    if String.length s <= max_bytes then s else String.sub s 0 max_bytes
  in
  let rounds = Prng.int_in g 0 3 in
  let rec go k s =
    if k = 0 then s
    else
      let _, s' = Mutate.mutate g s in
      go (k - 1) (clamp s')
  in
  { base; bytes = go rounds base.b_bytes }

let property bases ~max_bytes =
  {
    Property.name = "snapshot";
    gen = gen bases ~max_bytes;
    shrink = (fun case ->
        Seq.map (fun s -> { case with bytes = s }) (Shrink.string case.bytes));
    prop = contract;
    to_bytes = (fun case -> case.bytes);
    ext = "xms";
  }

let run ?corpus_dir ?(max_bytes = 1 lsl 22) ~seed ~iterations () =
  (* Bases are derived from the campaign seed so the whole run replays. *)
  let g = Prng.create ~seed:(Int64.logxor seed 0x534e4150L) () in
  let bases = make_bases g in
  Property.run ?corpus_dir ~count:iterations ~seed (property bases ~max_bytes)
