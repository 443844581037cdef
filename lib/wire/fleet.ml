(* Fork-per-worker fleet with a frame-relay front door.

   The front door never decodes request payloads — it moves frames.
   Per client connection: read a request frame, forward it to the
   connection's worker (dialing one round-robin on first need), read
   the worker's response frame, forward it back.  A worker that fails
   mid-exchange is dropped and the SAME request is re-sent to the next
   worker — sound because the query service is read-only — until every
   worker has been tried once; then the client gets a typed
   [Unavailable].  The next request starts the rotation fresh, so a
   revived or healthy worker picks the connection back up. *)

module P = Xmark_service.Protocol
module Stats = Xmark_stats

type worker = { w_id : int; w_addr : Addr.t; w_pid : int }

type t = {
  front_addr : Addr.t;
  lsock : Unix.file_descr;
  workers : worker array;
  lock : Mutex.t;
  mutable rr : int;
  mutable stopped : bool;
  mutable accept_thread : Thread.t option;
  mutable conns : Unix.file_descr list;
}

let front t = t.front_addr
let pids t = Array.to_list t.workers |> List.map (fun w -> w.w_pid)
let worker_addrs t = Array.to_list t.workers |> List.map (fun w -> w.w_addr)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- workers --------------------------------------------------------------- *)

let fork_worker ~make_server i addr =
  (* don't let the child flush (and duplicate) buffered parent output *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (let code =
         try
           let service = make_server i in
           Wire_server.serve addr service;
           0
         with e ->
           Printf.eprintf "fleet worker %d: %s\n%!" i (Printexc.to_string e);
           1
       in
       (* _exit: at_exit handlers belong to the parent's lifecycle *)
       Unix._exit code)
  | pid -> { w_id = i; w_addr = addr; w_pid = pid }

let reap_quiet pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_and_reap workers =
  Array.iter
    (fun w -> try Unix.kill w.w_pid Sys.sigterm with Unix.Unix_error _ -> ())
    workers;
  Array.iter (fun w -> reap_quiet w.w_pid) workers;
  Array.iter (fun w -> Addr.unlink w.w_addr) workers

(* A worker is ready when its socket accepts a connection.  Fail fast if
   the child already exited (bad snapshot, bind failure...). *)
let wait_ready ~timeout_s workers =
  let t0 = Xmark_stats.now_ns () in
  Array.iter
    (fun w ->
      let rec poll () =
        match Addr.connect w.w_addr with
        | fd -> close_quiet fd
        | exception Unix.Unix_error _ ->
            (match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
            | 0, _ -> ()
            | _, status ->
                kill_and_reap workers;
                failwith
                  (Printf.sprintf "fleet worker %d exited during startup (%s)"
                     w.w_id
                     (match status with
                     | Unix.WEXITED c -> Printf.sprintf "exit %d" c
                     | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                     | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s))
            | exception Unix.Unix_error _ -> ());
            if Xmark_stats.ms_since t0 > timeout_s *. 1000.0 then begin
              kill_and_reap workers;
              failwith
                (Printf.sprintf "fleet worker %d not ready within %.0f s"
                   w.w_id timeout_s)
            end;
            Thread.delay 0.02;
            poll ()
      in
      poll ())
    workers

(* --- front door ------------------------------------------------------------ *)

let pick t =
  Mutex.protect t.lock (fun () ->
      let w = t.workers.(t.rr mod Array.length t.workers) in
      t.rr <- t.rr + 1;
      w)

(* Relay one client connection.  [wconn] is the sticky worker
   connection; it is (re)dialed round-robin on first need and after any
   worker-side failure. *)
let relay t client_fd =
  let wconn = ref None in
  let close_worker () =
    match !wconn with
    | Some fd ->
        wconn := None;
        close_quiet fd
    | None -> ()
  in
  let dial () =
    match !wconn with
    | Some fd -> Some fd
    | None -> (
        let w = pick t in
        match Addr.connect w.w_addr with
        | fd ->
            wconn := Some fd;
            Some fd
        | exception Unix.Unix_error _ -> None)
  in
  (* Forward the raw request payload; at most one attempt per worker
     per request.  Re-sending after a mid-flight failure is safe —
     queries never write. *)
  let forward payload =
    let n = Array.length t.workers in
    let rec go attempt =
      if attempt >= n then (
        Stats.incr "fleet_unavailable";
        Wire_codec.encode_response
          (Error (P.Unavailable "no healthy fleet worker")))
      else
        match dial () with
        | None -> go (attempt + 1)
        | Some fd -> (
            match
              Frame.write fd Frame.Request payload;
              Frame.read fd
            with
            | Ok (Frame.Response, resp) -> resp
            | Ok (Frame.Request, _) | Error _ ->
                close_worker ();
                Stats.incr "fleet_worker_failures";
                go (attempt + 1)
            | exception Unix.Unix_error _ ->
                close_worker ();
                Stats.incr "fleet_worker_failures";
                go (attempt + 1))
    in
    go 0
  in
  let respond payload = Frame.write client_fd Frame.Response payload in
  let refuse msg =
    respond (Wire_codec.encode_response (Error (P.Bad_request msg)))
  in
  let rec loop () =
    match Frame.read client_fd with
    | Error Frame.Closed -> ()
    | Error e -> ( try refuse ("frame: " ^ Frame.error_to_string e) with Unix.Unix_error _ -> ())
    | Ok (Frame.Response, _) ->
        refuse "expected a request frame";
        loop ()
    | Ok (Frame.Request, payload) ->
        respond (forward payload);
        loop ()
  in
  Fun.protect ~finally:close_worker (fun () ->
      try loop () with Unix.Unix_error _ -> ())

let accept_loop t =
  let running () = Mutex.protect t.lock (fun () -> not t.stopped) in
  while running () do
    match Unix.accept t.lsock with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        Mutex.protect t.lock (fun () -> t.stopped <- true)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> Thread.yield ()
    | fd, _peer ->
        Stats.incr "fleet_connections";
        (match t.front_addr with
        | Addr.Tcp _ -> (
            try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
        | Addr.Unix_sock _ -> ());
        Mutex.protect t.lock (fun () -> t.conns <- fd :: t.conns);
        ignore
          (Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () ->
                   Mutex.protect t.lock (fun () ->
                       t.conns <- List.filter (fun f -> f != fd) t.conns);
                   close_quiet fd)
                 (fun () -> relay t fd))
             ())
  done

(* --- lifecycle ------------------------------------------------------------- *)

let start ?(ready_timeout_s = 30.0) ~workers:n ~make_server front_addr =
  if n < 1 then invalid_arg "Fleet.start: workers must be >= 1";
  (* fork first: the parent must still be single-threaded *)
  let workers =
    Array.init n (fun i -> fork_worker ~make_server i (Addr.worker front_addr i))
  in
  wait_ready ~timeout_s:ready_timeout_s workers;
  let lsock =
    try Addr.listen front_addr
    with e ->
      kill_and_reap workers;
      raise e
  in
  let t =
    {
      front_addr;
      lsock;
      workers;
      lock = Mutex.create ();
      rr = 0;
      stopped = false;
      accept_thread = None;
      conns = [];
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let stop t =
  let was_stopped =
    Mutex.protect t.lock (fun () ->
        let was = t.stopped in
        t.stopped <- true;
        was)
  in
  if not was_stopped then begin
    (try Unix.shutdown t.lsock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close (Addr.connect t.front_addr) with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    close_quiet t.lsock;
    Addr.unlink t.front_addr;
    let conns = Mutex.protect t.lock (fun () -> t.conns) in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    kill_and_reap t.workers
  end
