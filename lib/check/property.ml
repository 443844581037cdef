(* Property runner: seeded generation, exception containment, automatic
   shrinking, corpus persistence.

   Reproducibility contract: the campaign runs on a root generator
   [Prng.create ~seed]; each case gets its own [Prng.split root], and the
   split child's raw state word is the {e case seed} — printing it lets
   anyone rebuild that one case with [gen_case], byte-identically,
   without replaying the campaign prefix.  The shrink loop is greedy
   first-improvement over the property's shrink sequence, bounded by an
   evaluation budget so adversarial inputs cannot hang the harness. *)

module Prng = Xmark_prng.Prng

type 'a t = {
  name : string;  (** target name; used in corpus file names *)
  gen : Prng.t -> 'a;
  shrink : 'a -> 'a Seq.t;
  prop : 'a -> (string, string) result;
      (** [Ok label] feeds the outcome histogram; [Error msg] is a
          contract violation *)
  to_bytes : 'a -> string;  (** corpus/repr form of a case *)
  ext : string;  (** corpus file extension, without the dot *)
}

type failure = {
  f_name : string;
  f_seed : int64;  (** campaign seed *)
  f_case_seed : int64;  (** [gen_case] replays from this *)
  f_iteration : int;
  f_message : string;
  f_shrink_steps : int;
  f_input : string;  (** shrunk case, [to_bytes] form *)
  f_repr : string;  (** [f_input] truncated for display *)
  f_corpus : string option;  (** regression file, if a dir was given *)
}

type report = {
  r_name : string;
  r_seed : int64;
  r_iterations : int;  (** cases actually run (≤ requested on failure) *)
  r_outcomes : (string * int) list;  (** label → count, sorted *)
  r_failure : failure option;
}

(* Everything the property raises — including what the code under test
   leaks through it — becomes a counterexample, not a harness crash. *)
let eval prop x =
  match prop x with
  | r -> r
  | exception e -> Error ("uncaught exception: " ^ Printexc.to_string e)

let gen_case t case_seed = t.gen (Prng.create ~seed:case_seed ())

let shrink_loop t ~max_evals x0 msg0 =
  let evals = ref 0 in
  let rec go x msg steps =
    if !evals >= max_evals then (x, msg, steps)
    else
      let rec first seq =
        match seq () with
        | Seq.Nil -> None
        | Seq.Cons (cand, rest) ->
            if !evals >= max_evals then None
            else begin
              incr evals;
              match eval t.prop cand with
              | Error m -> Some (cand, m)
              | Ok _ -> first rest
            end
      in
      match first (t.shrink x) with
      | Some (x', msg') -> go x' msg' (steps + 1)
      | None -> (x, msg, steps)
  in
  go x0 msg0 0

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let write_corpus ~dir ~name ~ext ~case_seed bytes =
  mkdir_p dir;
  let path =
    Filename.concat dir (Printf.sprintf "%s-%016Lx.%s" name case_seed ext)
  in
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc;
  path

let truncate_repr s =
  let printable =
    String.map (fun c -> if c >= ' ' && c < '\x7f' then c else '.') s
  in
  if String.length printable <= 160 then printable
  else String.sub printable 0 160 ^ Printf.sprintf "...(%d bytes)" (String.length s)

let run ?corpus_dir ?(count = 200) ?(max_shrink_evals = 4000) ~seed t =
  let root = Prng.create ~seed () in
  let outcomes = Hashtbl.create 16 in
  let bump l = Hashtbl.replace outcomes l (1 + try Hashtbl.find outcomes l with Not_found -> 0) in
  let rec loop i =
    if i >= count then
      { r_name = t.name; r_seed = seed; r_iterations = count;
        r_outcomes =
          List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []);
        r_failure = None }
    else begin
      let case = Prng.split root in
      let case_seed = Prng.state case in
      let x = t.gen case in
      match eval t.prop x with
      | Ok label -> bump label; loop (i + 1)
      | Error msg ->
          let x', msg', steps =
            shrink_loop t ~max_evals:max_shrink_evals x msg
          in
          let bytes = t.to_bytes x' in
          let corpus =
            Option.map
              (fun dir ->
                write_corpus ~dir ~name:t.name ~ext:t.ext ~case_seed bytes)
              corpus_dir
          in
          { r_name = t.name; r_seed = seed; r_iterations = i + 1;
            r_outcomes =
              List.sort compare
                (Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []);
            r_failure =
              Some
                { f_name = t.name; f_seed = seed; f_case_seed = case_seed;
                  f_iteration = i; f_message = msg'; f_shrink_steps = steps;
                  f_input = bytes; f_repr = truncate_repr bytes;
                  f_corpus = corpus } }
    end
  in
  loop 0

(* The test-suite entry point: a counterexample raises [Failure] naming
   the property, both seeds (so [gen_case] rebuilds the case alone) and
   the shrunk input.  The trailing unit makes [check ~seed t] a test. *)
let check ?count ~seed t () =
  match (run ?count ~seed t).r_failure with
  | None -> ()
  | Some f ->
      failwith
        (Printf.sprintf
           "property \"%s\" failed: campaign seed %Ld, case seed %Ld (iteration %d, %d \
            shrink steps)\n%s\ninput: %s"
           f.f_name f.f_seed f.f_case_seed f.f_iteration f.f_shrink_steps f.f_message f.f_input)

let pp_report fmt r =
  Format.fprintf fmt "%s: %d iterations, seed %Ld@." r.r_name r.r_iterations
    r.r_seed;
  List.iter
    (fun (label, n) -> Format.fprintf fmt "  %-24s %d@." label n)
    r.r_outcomes;
  match r.r_failure with
  | None -> Format.fprintf fmt "  PASS@."
  | Some f ->
      Format.fprintf fmt
        "  FAIL at iteration %d (case seed %Ld, %d shrink steps)@.  %s@.  input: %s@."
        f.f_iteration f.f_case_seed f.f_shrink_steps f.f_message f.f_repr;
      Option.iter (Format.fprintf fmt "  corpus: %s@.") f.f_corpus
