(* Fuzz target: WAL recovery on randomly corrupted log files.

   Contract under test — for ANY corruption of a valid log file:
   - [Log.scan_string] returns a recovery or raises the typed
     {!Xmark_persist.Page_io.Corrupt}.  Any other exception is a
     violation.
   - Whatever survives the scan must replay {e deterministically}: the
     recovered record list applied twice to two fresh sessions over the
     same base document yields byte-identical serialized trees, stopping
     at the same record if one raises the typed
     {!Xmark_store.Updates.Update_error}.  Recovery that depends on
     anything but the log bytes and the base would make
     crash-restart-crash diverge from a single restart.
   - After every applied record, the store patched incrementally from
     the previous one answers Q1-Q20 and a set of parent-sensitive
     probes exactly like a store rebuilt from a deep copy of the same
     version.

   Bases are pristine logs of randomized (mostly valid) auction-site
   operations against a tiny fixed site document, built through the real
   [Log.create]/[Log.append] path, so zero-round mutations also exercise
   the clean-recovery path. *)

module Prng = Xmark_prng.Prng
module Crc32 = Xmark_persist.Crc32
module Log = Xmark_wal.Log
module Record = Xmark_wal.Record
module Updates = Xmark_store.Updates
module MM = Xmark_store.Backend_mainmem

(* The base document recovery replays against: three persons, three open
   auctions (each with a bidder, so close_auction can succeed), empty
   closed_auctions.  Fixed — the log under test varies, the ground does
   not. *)
let base_doc =
  let auction i =
    Printf.sprintf
      "<open_auction id=\"open_auction%d\"><initial>10.00</initial>\
       <bidder><date>01/01/2002</date><time>09:00:00</time>\
       <personref person=\"person%d\"/><increase>1.50</increase></bidder>\
       <current>11.50</current><itemref item=\"item%d\"/>\
       <seller person=\"person%d\"/><quantity>1</quantity>\
       <type>Regular</type></open_auction>"
      i i i ((i + 1) mod 3)
  in
  let person i =
    Printf.sprintf
      "<person id=\"person%d\"><name>Fuzz Person %d</name>\
       <emailaddress>mailto:p%d@example.invalid</emailaddress></person>"
      i i i
  in
  "<site><people>"
  ^ String.concat "" (List.init 3 person)
  ^ "</people><open_auctions>"
  ^ String.concat "" (List.init 3 auction)
  ^ "</open_auctions><closed_auctions></closed_auctions></site>"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Encode a pristine log of [ops] through the real append path. *)
let encode_log ops =
  let path = Filename.temp_file "xmark_fuzz_" ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let log =
        Log.create ~path ~base_len:(String.length base_doc)
          ~base_crc:(Crc32.digest base_doc)
      in
      Fun.protect
        ~finally:(fun () -> Log.close log)
        (fun () -> List.iter (fun op -> ignore (Log.append log op)) ops);
      read_file path)

let gen_op g =
  let auction () = Printf.sprintf "open_auction%d" (Prng.int_in g 0 4) in
  let person () = Printf.sprintf "person%d" (Prng.int_in g 0 4) in
  match Prng.int_in g 0 9 with
  | 0 | 1 ->
      Record.Register_person
        { name = Printf.sprintf "Fuzz %d" (Prng.int_in g 0 999);
          email = "mailto:fuzz@example.invalid" }
  | 2 ->
      Record.Close_auction { auction = auction (); date = "07/31/2002" }
  | _ ->
      Record.Place_bid
        { auction = auction (); person = person ();
          increase = float_of_int (1 + Prng.int_in g 0 39) /. 2.0;
          date = "07/31/2002"; time = "12:00:00" }

(* Digest of what a store answers: Q1-Q20, probes whose answers hang
   on parent pointers shared across versions, and the store's sizes. *)
let probes =
  [ "//bidder/.."; "//current/parent::open_auction"; {|/site/people/person[@id="person0"]|};
    "/site/closed_auctions/closed_auction" ]

let answers store =
  let module Runner = Xmark_core.Runner in
  let s = Runner.adopt_mainmem store in
  List.init 20 (fun i -> Runner.canonical (Runner.run_session s (i + 1)))
  @ List.map (fun q -> Runner.canonical (Runner.run_text_session s q)) probes
  @ [ Printf.sprintf "%d %d" (MM.node_count store) (MM.size_bytes store) ]
  |> String.concat "\x00" |> Digest.string

(* One deterministic replay pass: apply the recovered records to a fresh
   session over [base_doc], stopping at the first typed rejection.
   Returns (tree digest, applied count, rejection).  With [differential],
   also checks the patched store against a rebuild after every record
   and returns the first record after which they disagree. *)
let replay ?(differential = false) records =
  let session = Updates.of_string base_doc in
  if differential then ignore (Updates.store session);
  let applied = ref 0 in
  let rejection = ref None and diverged = ref None in
  (try
     List.iter
       (fun r ->
         ignore (Record.apply session r.Record.op);
         incr applied;
         if differential && !diverged = None then
           let rebuilt =
             MM.create ~level:(Updates.level session) (Xmark_xml.Dom.deep_copy (Updates.root session))
           in
           if answers (Updates.store session) <> answers rebuilt then diverged := Some !applied)
       records
   with Updates.Update_error f -> rejection := Some (Updates.fault_to_string f));
  let bytes = Xmark_xml.Serialize.to_string (Updates.root session) in
  ((Digest.to_hex (Digest.string bytes), !applied, !rejection), !diverged)

(* The stand-alone contract — also what {!Corpus} replays for [.wal]
   files. *)
let contract bytes =
  match Log.scan_string bytes with
  | exception Xmark_persist.Corrupt _ -> Ok "corrupt"
  | exception e -> Error ("Log.scan_string raised " ^ Printexc.to_string e)
  | recovery -> (
      match (replay ~differential:true recovery.Log.records, replay recovery.Log.records) with
      | exception e -> Error ("replay raised " ^ Printexc.to_string e)
      | (a, _), (b, _) when a <> b ->
          Error "recovered records replayed to different states"
      | (_, Some k), _ ->
          Error (Printf.sprintf "patched store disagrees with a rebuild after record %d" k)
      | ((_, _, rejection), None), _ ->
          let shape =
            if recovery.Log.truncated_bytes > 0 then "torn" else "clean"
          in
          Ok
            (match rejection with
            | None -> shape ^ "-replay"
            | Some _ -> shape ^ "-rejected"))

type case = { bytes : string }

let gen ~max_bytes g =
  let n_ops = Prng.int_in g 0 8 in
  let base = encode_log (List.init n_ops (fun _ -> gen_op g)) in
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
  { bytes = go rounds base }

let property ~max_bytes =
  {
    Property.name = "wal";
    gen = gen ~max_bytes;
    shrink =
      (fun case -> Seq.map (fun s -> { bytes = s }) (Shrink.string case.bytes));
    prop = (fun case -> contract case.bytes);
    to_bytes = (fun case -> case.bytes);
    ext = "wal";
  }

let run ?corpus_dir ?(max_bytes = 1 lsl 16) ~seed ~iterations () =
  let report =
    Property.run ?corpus_dir ~count:iterations ~seed (property ~max_bytes)
  in
  report
