(* The benchmark's one clock and its in-memory spans.

   Every timer reads CLOCK_MONOTONIC (bechamel's stub), so an NTP step
   cannot skew a median.  Spans are taken by the benchmark around its own
   calls into each layer; the program itself records none.  When tracing
   is off, [span] is one flag test and a call. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let ms_since t0 = ms_between t0 (now_ns ())

(* Run [f]; return its result and its wall time in milliseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

type span = {
  id : int;
  parent : int;  (* 0 at top level *)
  name : string;
  req : int;  (* request id; 0 outside the measured phase *)
  start : int64;
  stop : int64;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 0

(* Open spans per thread, innermost first: clients run on several
   domains and threads, and each keeps its own nesting. *)
let open_spans : (int, int list) Hashtbl.t = Hashtbl.create 8

let self_key () = (Domain.self () :> int) * 65536 + Thread.id (Thread.self ())

let record ?(parent = 0) ?(req = 0) name start stop =
  Mutex.protect lock (fun () ->
      incr next_id;
      recorded := { id = !next_id; parent; name; req; start; stop } :: !recorded;
      !next_id)

let span ?(req = 0) name f =
  if not !enabled then f ()
  else begin
    let key = self_key () in
    let id, parent =
      Mutex.protect lock (fun () ->
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans key) in
          Hashtbl.replace open_spans key (!next_id :: stack);
          (!next_id, match stack with p :: _ -> p | [] -> 0))
    in
    let start = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let stop = now_ns () in
        Mutex.protect lock (fun () ->
            (match Hashtbl.find_opt open_spans key with
            | Some (_ :: rest) -> Hashtbl.replace open_spans key rest
            | _ -> ());
            recorded := { id; parent; name; req; start; stop } :: !recorded))
  end

(* [span] and [timed] together: [f]'s result and its wall time in ms. *)
let timed_span ?req name f = timed (fun () -> span ?req name f)

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let duration s = ms_between s.start s.stop

(* A span's self time: its duration minus the part its children cover.
   Children of one span run on the span's own thread, so they never
   overlap one another. *)
let self_times spans =
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ms s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id)))
    spans

let write_file path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"req\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
            s.id s.parent s.name s.req s.start s.stop)
        spans)
