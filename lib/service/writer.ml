module Runner = Xmark_core.Runner
module Updates = Xmark_store.Updates
module Dom = Xmark_xml.Dom
module Snapshot = Xmark_persist.Snapshot
module Crc32 = Xmark_persist.Crc32
module Page_io = Xmark_persist.Page_io
module Record = Xmark_wal.Record
module Log = Xmark_wal.Log
module Replay = Xmark_wal.Replay

type t = {
  master : Updates.session;
      (* persistent versions: a commit path-copies the spine it touches
         and the published store shares every other subtree, so readers
         holding an older epoch never see the master move *)
  base : string;  (* path of the base snapshot under the wal dir *)
  log_path : string;
  mutable log : Log.t;  (* replaced wholesale by [checkpoint] *)
  mutable poisoned : string option;
}

type recovery_info = { fresh : bool; replayed : int; truncated_bytes : int }

let op_of_update : Protocol.update -> Record.op = function
  | Protocol.Register_person { name; email } -> Record.Register_person { name; email }
  | Protocol.Place_bid { auction; person; increase; date; time } ->
      Record.Place_bid { auction; person; increase; date; time }
  | Protocol.Close_auction { auction; date } -> Record.Close_auction { auction; date }

let fault_of_update_fault : Updates.fault -> Protocol.write_fault = function
  | Updates.Unknown_auction s -> Protocol.Unknown_auction s
  | Updates.Unknown_person s -> Protocol.Unknown_person s
  | Updates.Auction_closed s -> Protocol.Auction_closed s
  | Updates.No_bids s -> Protocol.No_bids s
  | Updates.Missing_section s -> Protocol.Missing_section s
  | Updates.Invalid s -> Protocol.Invalid_update s

let char_of_level = function `Full -> 'D' | `Id_only -> 'E' | `Plain -> 'F'

let level_of_char base = function
  | 'D' -> `Full
  | 'E' -> `Id_only
  | 'F' -> `Plain
  | c -> Page_io.corrupt "wal base %s: system %c is not a main-memory store" base c

let file_len_crc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      (len, Crc32.digest s))

let open_dir ?(level = `Full) ~dir ~bootstrap () =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let base = Filename.concat dir "base.xms" in
  let log_path = Filename.concat dir "wal.log" in
  if Sys.file_exists base && Sys.file_exists log_path then begin
    let sys, _kind, _bytes = Snapshot.probe base in
    let level = level_of_char base sys in
    let base_len, base_crc = file_len_crc base in
    let log, recovery = Log.open_ ~expect_base:(base_len, base_crc) log_path in
    let master = Replay.of_snapshot ~level base recovery.Log.records in
    ( { master; base; log_path; log; poisoned = None },
      {
        fresh = false;
        replayed = List.length recovery.Log.records;
        truncated_bytes = recovery.Log.truncated_bytes;
      } )
  end
  else begin
    let root = bootstrap () in
    Snapshot.write ~path:base ~system:(char_of_level level) (Snapshot.Dom root);
    let base_len, base_crc = file_len_crc base in
    (* the master is the snapshot read back, not the bootstrap tree:
       recovery replays onto the decoded snapshot, so the writer must
       have applied every commit to identical ground *)
    let master = Replay.of_snapshot ~level base [] in
    let log = Log.create ~path:log_path ~base_len ~base_crc in
    ( { master; base; log_path; log; poisoned = None },
      { fresh = true; replayed = 0; truncated_bytes = 0 } )
  end

(* The WAL drops any frame larger than [Log.max_record] as a torn tail
   on recovery, so committing one would acknowledge a write the next
   restart silently deletes.  Checked against the real encoding (the
   LSN field is fixed-width, so the size is the same one [Log.append]
   will frame) before [Record.apply], leaving tree and log untouched. *)
let oversized op =
  let b = Buffer.create 64 in
  Record.encode b { Record.lsn = 1; op };
  if Buffer.length b > Log.max_record then
    Some
      (Printf.sprintf "update encodes to %d bytes, over the %d-byte WAL record cap"
         (Buffer.length b) Log.max_record)
  else None

let commit t u =
  match t.poisoned with
  | Some msg -> Error (Protocol.Failed ("writer poisoned by an earlier disk failure: " ^ msg))
  | None -> (
      let op = op_of_update u in
      match oversized op with
      | Some msg -> Error (Protocol.Rejected (Protocol.Invalid_update msg))
      | None -> (
          (* apply first (validates completely before mutating), log
             second: a rejection touches nothing, a crash before fsync
             loses only an unacknowledged commit *)
          match Record.apply t.master op with
          | exception Updates.Update_error f ->
              Error (Protocol.Rejected (fault_of_update_fault f))
          | assigned -> (
              match Log.append t.log op with
              | lsn -> Ok (lsn, assigned)
              | exception e ->
                  let msg = Printexc.to_string e in
                  t.poisoned <- Some msg;
                  Error (Protocol.Failed ("wal append failed: " ^ msg)))))

let publish t = Runner.adopt_mainmem (Updates.store t.master)

let last_lsn t = Log.last_lsn t.log

(* Fold the log into a fresh base: the master tree (base + every
   committed record) becomes the new snapshot, and the log restarts
   empty, bound to it.  Step order — tmp snapshot, rename over base,
   recreate log — makes every step atomic; a crash between the last
   two leaves a new base beside a log bound to the old one, which the
   next [open_dir] refuses as the typed [Corrupt] (detection, never a
   silent wrong replay). *)
let checkpoint t =
  match t.poisoned with
  | Some msg ->
      Error
        (Protocol.Failed ("writer poisoned by an earlier disk failure: " ^ msg))
  | None -> (
      match
        let folded = Log.last_lsn t.log in
        let tmp = t.base ^ ".tmp" in
        Snapshot.write ~path:tmp
          ~system:(char_of_level (Updates.level t.master))
          (Snapshot.Dom (Updates.root t.master));
        Sys.rename tmp t.base;
        Log.close t.log;
        let base_len, base_crc = file_len_crc t.base in
        t.log <- Log.create ~path:t.log_path ~base_len ~base_crc;
        folded
      with
      | folded -> Ok folded
      | exception e ->
          let msg = Printexc.to_string e in
          t.poisoned <- Some msg;
          Error (Protocol.Failed ("checkpoint failed: " ^ msg)))

let max_id_suffix root prefix =
  let plen = String.length prefix in
  let best = ref (-1) in
  Dom.iter
    (fun n ->
      match Dom.attr n "id" with
      | Some id when String.length id > plen && String.sub id 0 plen = prefix
        -> (
          match int_of_string_opt (String.sub id plen (String.length id - plen)) with
          | Some k -> best := max !best k
          | None -> ())
      | _ -> ())
    root;
  !best

let write_targets t =
  let root = Updates.root t.master in
  (max_id_suffix root "open_auction" + 1, max_id_suffix root "person" + 1)

let digest_of_session session n =
  let outcome = Runner.run_session session n in
  Digest.to_hex (Digest.string (Runner.canonical outcome))

let close t = Log.close t.log
