(* xmark_fuzz — deterministic mutation fuzzing of the stack's trust
   boundaries: the Sax parser, the snapshot reader, the query service,
   the wire frame decoder, the write-ahead-log recovery scan, and the
   vectorized-versus-scalar execution equivalence.

   Every campaign is a pure function of --seed: the same seed, target
   and iteration count replays the same inputs byte-for-byte on any
   machine.  On a contract violation the harness shrinks the input to a
   minimal reproducer, prints its case seed (replayable on its own,
   without the campaign prefix), writes it under --corpus, and exits 1.
   Exit 0 means every iteration ended in a typed outcome; the harness
   itself never crashes on hostile input — an uncaught exception IS the
   bug being hunted, and is reported as a violation, not a crash.

   Exit codes: 0 all contracts held; 1 a violation was found (or corpus
   replay failed); 2 usage or environment errors. *)

open Cmdliner
module Check = Xmark_check
module Property = Check.Property
module Provenance = Xmark_core.Provenance

type target = Sax | Snapshot | Service | Wire | Wal | Vec

let target_names =
  [ ("sax", Sax); ("snapshot", Snapshot); ("service", Service); ("wire", Wire);
    ("wal", Wal); ("vec", Vec) ]

let name_of_target t =
  fst (List.find (fun (_, t') -> t' = t) target_names)

let run_target ~corpus_dir ~seed ~iterations ~max_bytes = function
  | Sax -> Check.Fuzz_sax.run ?corpus_dir ~max_bytes ~seed ~iterations ()
  | Snapshot -> Check.Fuzz_snapshot.run ?corpus_dir ~seed ~iterations ()
  | Service -> Check.Fuzz_service.run ?corpus_dir ~seed ~iterations ()
  | Wire -> Check.Fuzz_wire.run ?corpus_dir ~max_bytes ~seed ~iterations ()
  | Wal -> Check.Fuzz_wal.run ?corpus_dir ~max_bytes ~seed ~iterations ()
  | Vec -> Check.Fuzz_vec.run ?corpus_dir ~seed ~iterations ()

let replay_corpus dir =
  if not (Sys.file_exists dir) then begin
    Printf.printf "corpus %s: empty (nothing to replay)\n" dir;
    0
  end
  else begin
    let results = Check.Corpus.replay_dir dir in
    let bad =
      List.fold_left
        (fun bad (path, r) ->
          match r with
          | Ok label ->
              Printf.printf "  %-48s %s\n" (Filename.basename path) label;
              bad
          | Error msg ->
              Printf.printf "  %-48s FAIL: %s\n" (Filename.basename path) msg;
              bad + 1)
        0 results
    in
    Printf.printf "corpus %s: %d file(s), %d failure(s)\n" dir
      (List.length results) bad;
    if bad > 0 then 1 else 0
  end

let run targets seed iterations max_bytes corpus seed_corpus replay =
  try
    let corpus_dir = corpus in
    (match corpus_dir with
    | Some dir when seed_corpus ->
        let written = Check.Corpus.seed dir in
        Printf.printf "seeded %d corpus file(s) into %s\n" (List.length written)
          dir
    | None when seed_corpus ->
        prerr_endline "--seed-corpus requires --corpus DIR";
        exit 2
    | _ -> ());
    if replay then
      match corpus_dir with
      | Some dir -> replay_corpus dir
      | None ->
          prerr_endline "--replay requires --corpus DIR";
          2
    else begin
      let seed64 = Int64.of_int seed in
      Printf.printf "xmark_fuzz: commit %s, seed %d, %d iteration(s)/target\n%!"
        (Provenance.commit ()) seed iterations;
      let reports =
        List.map
          (fun t ->
            let r =
              run_target ~corpus_dir ~seed:seed64 ~iterations ~max_bytes t
            in
            Format.printf "%a%!" Property.pp_report r;
            (t, r))
          targets
      in
      let failed =
        List.filter (fun (_, r) -> r.Property.r_failure <> None) reports
      in
      if failed = [] then begin
        Printf.printf "all %d target(s) clean\n" (List.length targets);
        0
      end
      else begin
        List.iter
          (fun (t, r) ->
            match r.Property.r_failure with
            | None -> ()
            | Some f ->
                Printf.eprintf
                  "FAIL %s: replay with --target %s --seed %d (case seed %Ld)\n"
                  (name_of_target t) (name_of_target t) seed f.Property.f_case_seed)
          failed;
        1
      end
    end
  with
  | Sys_error m ->
      Printf.eprintf "%s\n" m;
      2

let targets_arg =
  let parse s =
    let parts = String.split_on_char ',' (String.lowercase_ascii s) in
    let resolve = function
      | "all" -> Ok (List.map snd target_names)
      | p -> (
          match List.assoc_opt p target_names with
          | Some t -> Ok [ t ]
          | None -> Error (`Msg (Printf.sprintf "unknown target %S" p)))
    in
    List.fold_left
      (fun acc p ->
        match (acc, resolve p) with
        | Ok ts, Ok ts' -> Ok (ts @ ts')
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      (Ok []) parts
  in
  let print fmt ts =
    Format.pp_print_string fmt
      (String.concat "," (List.map name_of_target ts))
  in
  Arg.(
    value
    & opt (conv (parse, print)) (List.map snd target_names)
    & info [ "t"; "target" ]
        ~docv:"TARGET"
        ~doc:
          "Comma-separated fuzz targets: $(b,sax), $(b,snapshot), \
           $(b,service), $(b,wire), $(b,wal), $(b,vec) or \
           $(b,all) (default all).")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "s"; "seed" ] ~docv:"N"
        ~doc:
          "Campaign seed.  The same seed replays the same campaign \
           byte-for-byte.")

let iterations_arg =
  Arg.(
    value & opt int 1000
    & info [ "n"; "iterations" ] ~docv:"N"
        ~doc:"Fuzz cases per target (default 1000).")

let max_bytes_arg =
  Arg.(
    value & opt int 16384
    & info [ "max-bytes" ] ~docv:"N"
        ~doc:
          "Size cap for generated/mutated sax inputs (default 16384; large \
           enough that nesting attacks can exceed the parser's depth \
           limit).")

let corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "corpus" ] ~docv:"DIR"
        ~doc:
          "Corpus directory: shrunk reproducers of violations are written \
           here; $(b,--replay) re-checks every file in it.")

let seed_corpus_arg =
  Arg.(
    value & flag
    & info [ "seed-corpus" ]
        ~doc:
          "Write the hand-constructed seed cases (tag imbalance, \
           unterminated CDATA, truncated/transposed/re-sealed snapshot \
           pages, malformed queries) into $(b,--corpus) first.")

let replay_arg =
  Arg.(
    value & flag
    & info [ "replay" ]
        ~doc:
          "Instead of fuzzing, replay every corpus file against its \
           contract and exit 1 on any regression.")

let cmd =
  let doc = "deterministic mutation fuzzing of parser, snapshots and service" in
  Cmd.v
    (Cmd.info "xmark_fuzz" ~version:"1.0" ~doc)
    Term.(
      const run $ targets_arg $ seed_arg $ iterations_arg $ max_bytes_arg
      $ corpus_arg $ seed_corpus_arg $ replay_arg)

let () = exit (Cmd.eval' cmd)
