(* The serve daemon.  Threading model: the caller's thread runs the
   accept loop; each connection gets a systhread that reads frames and
   handles requests sequentially; heavy lifting happens on the
   engine's domain pool via the per-request supervisor, so connection
   threads spend their time blocked in [select]/[Condition.wait] and
   the runtime lock is not a throughput concern. *)

module Engine = Vdram_engine.Engine
module Supervise = Vdram_engine.Supervise
module Faults = Vdram_engine.Faults
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Report = Vdram_core.Report
module Sensitivity = Vdram_analysis.Sensitivity
module Corners = Vdram_analysis.Corners
module Sweep = Vdram_analysis.Sweep
module Lenses = Vdram_analysis.Lenses

type listener = Unix_path of string | Tcp of string * int

type config = {
  listener : listener;
  max_clients : int;
  max_inflight : int;
  max_frame_bytes : int;
  backlog : int;
  drain_grace : float;
  retry_after_ms : int;
}

let default_config listener =
  {
    listener;
    max_clients = 64;
    max_inflight = 8;
    max_frame_bytes = 1 lsl 20;
    backlog = 64;
    drain_grace = 5.0;
    retry_after_ms = 200;
  }

type conn = {
  fd : Unix.file_descr;
  wmu : Mutex.t;
  mutable alive : bool;
}

type pending = {
  p_seq : int;
  p_conn : conn;
  p_id : Json.t;
  p_terminal : bool Atomic.t;
}

type t = {
  cfg : config;
  engine : Engine.t;
  plan : Faults.plan option;
  lsock : Unix.file_descr;
  coalesce : outcome Coalesce.t;
  draining : bool Atomic.t;
  inflight : int Atomic.t;
  clients : int Atomic.t;
  started : float;
  c_conns : int Atomic.t;
  c_requests : int Atomic.t;
  c_completed : int Atomic.t;
  c_failed : int Atomic.t;
  c_overloaded : int Atomic.t;
  c_bad_frames : int Atomic.t;
  c_item_failures : int Atomic.t;
  c_injected : int Atomic.t;
  mu : Mutex.t;  (* guards [by_class], [registry], [next_seq] *)
  by_class : (string, int) Hashtbl.t;
  registry : (int, pending) Hashtbl.t;
  mutable next_seq : int;
}

(* What one request computes: streamed part payloads (sweeps) plus the
   terminal payload, both without the [id] member — every consumer of
   a coalesced flight stamps its own id. *)
and outcome = {
  parts : (string * Json.t) list list;
  status : string;  (* "ok" | "error" *)
  terminal : (string * Json.t) list;  (* includes the status member *)
}

let jint n = Json.Num (float_of_int n)
let jstr s = Json.Str s

(* ----- writing ----------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send conn json =
  Mutex.lock conn.wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmu)
    (fun () ->
      if conn.alive then
        try write_all conn.fd (Json.to_string json ^ "\n") with
        | Unix.Unix_error _ | Sys_error _ -> conn.alive <- false)

let frame id payload = Json.Obj (("id", id) :: payload)

let error_payload ?(extra = []) ~injected cls msg =
  ("status", jstr "error") :: ("class", jstr cls)
  :: ("injected", Json.Bool injected) :: ("message", jstr msg) :: extra

let ok_payload ~op ~failures ~data text =
  [
    ("status", jstr "ok"); ("op", jstr op); ("text", jstr text);
    ("data", data); ("failures", jint failures);
  ]

let ok_outcome ?(parts = []) ~op ~failures ~data text =
  { parts; status = "ok"; terminal = ok_payload ~op ~failures ~data text }

let err_outcome ?(parts = []) ?(injected = false) cls msg =
  { parts; status = "error"; terminal = error_payload ~injected cls msg }

(* ----- request registry (drain needs to reach in-flight requests) -- *)

let register t conn id =
  Mutex.lock t.mu;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let p = { p_seq = seq; p_conn = conn; p_id = id; p_terminal = Atomic.make false } in
  Hashtbl.replace t.registry seq p;
  Mutex.unlock t.mu;
  p

let unregister t p =
  Mutex.lock t.mu;
  Hashtbl.remove t.registry p.p_seq;
  Mutex.unlock t.mu

(* Exactly one terminal frame per request: whoever wins the CAS —
   the computing thread or the drain path — writes it. *)
let send_terminal p payload =
  if Atomic.compare_and_set p.p_terminal false true then begin
    send p.p_conn (frame p.p_id payload);
    true
  end
  else false

let stream_part p payload =
  if not (Atomic.get p.p_terminal) then send p.p_conn (frame p.p_id payload)

(* ----- failure accounting ------------------------------------------ *)

let supervisor_for t deadline =
  let policy = { Supervise.keep_going = true; max_failures = None; deadline } in
  Supervise.create ~policy ?faults:t.plan ()

let merge_failures t sup =
  let c = Supervise.counters sup in
  if c.Supervise.failures > 0 then begin
    ignore (Atomic.fetch_and_add t.c_item_failures c.Supervise.failures : int);
    ignore (Atomic.fetch_and_add t.c_injected c.Supervise.injected : int);
    Mutex.lock t.mu;
    List.iter
      (fun (stage, n) ->
        let cur = Option.value (Hashtbl.find_opt t.by_class stage) ~default:0 in
        Hashtbl.replace t.by_class stage (cur + n))
      c.Supervise.by_stage;
    Mutex.unlock t.mu
  end;
  c.Supervise.failures

(* ----- computing one request --------------------------------------- *)

let with_device spec pattern k =
  match Protocol.resolve_config spec with
  | Error e -> err_outcome "bad_request" e
  | Ok (config, stored) ->
    (match Protocol.resolve_pattern config stored pattern with
     | Error e -> err_outcome "bad_request" e
     | Ok p -> k config p)

let chunk_list n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let sample_json (s : Sweep.sample) =
  Json.Obj
    [
      ("value", Json.Num s.Sweep.value);
      ("power_w", Json.Num s.Sweep.power);
      ("current_a", Json.Num s.Sweep.current);
      ( "energy_per_bit_j",
        match s.Sweep.energy_per_bit with
        | Some e -> Json.Num e
        | None -> Json.Null );
    ]

let compute t (req : Protocol.request) ~on_part =
  try
    match req.Protocol.kind with
    | Protocol.Ping | Protocol.Stats ->
      (* Handled before admission; unreachable here. *)
      err_outcome "driver" "internal: control op reached compute"
    | Protocol.Eval { spec; pattern } ->
      with_device spec pattern (fun config p ->
          let sup = supervisor_for t req.Protocol.deadline in
          let outcomes =
            Supervise.map sup t.engine
              ~check:(fun ((_ : string), r) -> Supervise.finite_report r)
              (fun () ->
                (* [~base:config]: the rendered patterns and the report
                   share one extraction of [config]. *)
                let eval = Engine.eval ~base:config t.engine in
                let text =
                  Render.to_string
                    (fun ppf () -> Render.power ~eval ppf config p)
                    ()
                in
                (text, eval config p))
              [ () ]
          in
          let failures = merge_failures t sup in
          match outcomes with
          | [ Supervise.Done (text, r) ] ->
            ok_outcome ~op:"eval" ~failures
              ~data:
                (Json.Obj
                   [
                     ("power_w", Json.Num r.Report.power);
                     ("current_a", Json.Num r.Report.current);
                     ( "energy_per_bit_j",
                       match r.Report.energy_per_bit with
                       | Some e -> Json.Num e
                       | None -> Json.Null );
                   ])
              text
          | [ Supervise.Failed f ] ->
            err_outcome ~injected:f.Supervise.injected f.Supervise.stage
              f.Supervise.message
          | _ -> err_outcome "driver" "evaluation was skipped")
    | Protocol.Sensitivity { spec; pattern; top; variation } ->
      with_device spec pattern (fun config p ->
          let sup = supervisor_for t req.Protocol.deadline in
          match
            Sensitivity.run ~engine:t.engine ~supervisor:sup ?variation
              ~pattern:p config
          with
          | s ->
            let failures = merge_failures t sup in
            ok_outcome ~op:"sensitivity" ~failures
              ~data:
                (Json.Obj
                   [
                     ( "nominal_power_w",
                       Json.Num s.Sensitivity.nominal_power );
                     ("entries", jint (List.length s.Sensitivity.entries));
                   ])
              (Render.to_string (Render.sensitivity ~top) s)
          | exception e ->
            ignore (merge_failures t sup : int);
            let stage, injected, msg = Supervise.classify e in
            err_outcome ~injected stage msg)
    | Protocol.Corners { spec; pattern; samples; spread } ->
      with_device spec pattern (fun config p ->
          let sup = supervisor_for t req.Protocol.deadline in
          match
            Corners.run ~engine:t.engine ~supervisor:sup ~samples ~spread
              ~pattern:p config
          with
          | d ->
            let failures = merge_failures t sup in
            ok_outcome ~op:"corners" ~failures
              ~data:
                (Json.Obj
                   [
                     ("samples", jint d.Corners.samples);
                     ("failed", jint d.Corners.failed);
                     ("mean_a", Json.Num d.Corners.mean);
                     ("std_a", Json.Num d.Corners.std);
                     ("min_a", Json.Num d.Corners.min);
                     ("max_a", Json.Num d.Corners.max);
                     ("p05_a", Json.Num d.Corners.p05);
                     ("p95_a", Json.Num d.Corners.p95);
                   ])
              (Render.to_string
                 (Render.corners ~config_name:config.Config.name
                    ~pattern_name:p.Pattern.name)
                 d)
          | exception e ->
            ignore (merge_failures t sup : int);
            let stage, injected, msg = Supervise.classify e in
            err_outcome ~injected stage msg)
    | Protocol.Sweep { spec; pattern; lens; factors } ->
      with_device spec pattern (fun config p ->
          match Lenses.find lens with
          | None -> err_outcome "bad_request" (Printf.sprintf "unknown lens %S" lens)
          | Some l ->
            let sup = supervisor_for t req.Protocol.deadline in
            (match
               let parts = ref [] in
               let samples = ref [] in
               let results = ref [] in
               List.iteri
                 (fun seq fs ->
                   let sw =
                     Sweep.run_relative ~engine:t.engine ~supervisor:sup
                       ~lens:l ~factors:fs ~pattern:p config
                   in
                   results := sw :: !results;
                   let payload =
                     [
                       ("status", jstr "part"); ("seq", jint seq);
                       ( "samples",
                         Json.List (List.map sample_json sw.Sweep.samples) );
                     ]
                   in
                   parts := payload :: !parts;
                   on_part payload;
                   samples := !samples @ sw.Sweep.samples)
                 (chunk_list 8 factors);
               let first = List.hd (List.rev !results) in
               ({ first with Sweep.samples = !samples }, List.rev !parts)
             with
             | full, parts ->
               let failures = merge_failures t sup in
               ok_outcome ~parts ~op:"sweep" ~failures
                 ~data:
                   (Json.Obj
                      [
                        ("lens", jstr l.Lenses.name);
                        ("points", jint (List.length full.Sweep.samples));
                        ("parts", jint (List.length parts));
                      ])
                 (Render.to_string Render.sweep full)
             | exception e ->
               ignore (merge_failures t sup : int);
               let stage, injected, msg = Supervise.classify e in
               err_outcome ~injected stage msg))
  with e ->
    (* compute must be total: an escaped exception would poison the
       coalesced flight and skip the terminal frame. *)
    let stage, injected, msg = Supervise.classify e in
    err_outcome ~injected stage msg

(* ----- stats -------------------------------------------------------- *)

let stats_json t =
  let led, shared = Coalesce.counters t.coalesce in
  let by_class =
    Mutex.lock t.mu;
    let l = Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.by_class [] in
    Mutex.unlock t.mu;
    List.sort (fun (a, _) (b, _) -> compare a b) l
  in
  Json.Obj
    [
      ("engine", Json.Obj [ ("jobs", jint (Engine.jobs t.engine)) ]);
      ( "requests",
        Json.Obj
          [
            ("connections", jint (Atomic.get t.c_conns));
            ("received", jint (Atomic.get t.c_requests));
            ("completed", jint (Atomic.get t.c_completed));
            ("failed", jint (Atomic.get t.c_failed));
            ("overloaded", jint (Atomic.get t.c_overloaded));
            ("bad_frames", jint (Atomic.get t.c_bad_frames));
            ("coalesced_led", jint led);
            ("coalesced_shared", jint shared);
            ("inflight", jint (Atomic.get t.inflight));
          ] );
      ( "failures",
        Json.Obj
          [
            ("items", jint (Atomic.get t.c_item_failures));
            ("injected", jint (Atomic.get t.c_injected));
            ( "by_class",
              Json.Obj (List.map (fun (k, n) -> (k, jint n)) by_class) );
          ] );
      ("draining", Json.Bool (Atomic.get t.draining));
      ("uptime_s", Json.Num (Unix.gettimeofday () -. t.started));
    ]

(* ----- request handling -------------------------------------------- *)

let handle_request t conn (req : Protocol.request) =
  ignore (Atomic.fetch_and_add t.c_requests 1 : int);
  match req.Protocol.kind with
  | Protocol.Ping ->
    send conn (frame req.Protocol.id [ ("status", jstr "ok"); ("op", jstr "ping") ])
  | Protocol.Stats ->
    send conn
      (frame req.Protocol.id
         [ ("status", jstr "ok"); ("op", jstr "stats"); ("stats", stats_json t) ])
  | _ ->
    if Atomic.get t.draining then begin
      ignore (Atomic.fetch_and_add t.c_failed 1 : int);
      send conn
        (frame req.Protocol.id
           (error_payload ~injected:false "aborted" "server is draining"))
    end
    else begin
      let slot = Atomic.fetch_and_add t.inflight 1 in
      if slot >= t.cfg.max_inflight then begin
        ignore (Atomic.fetch_and_add t.inflight (-1) : int);
        ignore (Atomic.fetch_and_add t.c_overloaded 1 : int);
        send conn
          (frame req.Protocol.id
             (error_payload ~injected:false "overloaded"
                "too many requests in flight"
                ~extra:[ ("retry_after_ms", jint t.cfg.retry_after_ms) ]))
      end
      else begin
        let p = register t conn req.Protocol.id in
        let t0 = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            unregister t p;
            ignore (Atomic.fetch_and_add t.inflight (-1) : int))
          (fun () ->
            let coalesced, outcome =
              match Protocol.work_key req with
              | None -> (false, compute t req ~on_part:(stream_part p))
              | Some key ->
                (match
                   Coalesce.run t.coalesce ~key (fun () ->
                       compute t req ~on_part:(stream_part p))
                 with
                 | `Led o -> (false, o)
                 | `Shared o -> (true, o)
                 | exception e ->
                   let stage, injected, msg = Supervise.classify e in
                   (false, err_outcome ~injected stage msg))
            in
            (* Followers replay the leader's stream under their own id. *)
            if coalesced then List.iter (stream_part p) outcome.parts;
            let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            ignore
              (send_terminal p
                 (outcome.terminal
                 @ [
                     ("coalesced", Json.Bool coalesced);
                     ("elapsed_ms", Json.Num elapsed_ms);
                   ])
                : bool);
            if outcome.status = "ok" then
              ignore (Atomic.fetch_and_add t.c_completed 1 : int)
            else ignore (Atomic.fetch_and_add t.c_failed 1 : int))
      end
    end

let handle_line t conn line =
  match Json.parse line with
  | Error e ->
    ignore (Atomic.fetch_and_add t.c_bad_frames 1 : int);
    send conn (frame Json.Null (error_payload ~injected:false "bad_frame" e))
  | Ok j ->
    (match Protocol.decode j with
     | Error (id, msg) ->
       ignore (Atomic.fetch_and_add t.c_requests 1 : int);
       ignore (Atomic.fetch_and_add t.c_failed 1 : int);
       send conn (frame id (error_payload ~injected:false "bad_request" msg))
     | Ok req -> handle_request t conn req)

(* ----- connection loop --------------------------------------------- *)

let take_line buf =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    let line =
      if i > 0 && s.[i - 1] = '\r' then String.sub s 0 (i - 1)
      else String.sub s 0 i
    in
    Buffer.clear buf;
    Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
    Some line

let handle_conn t conn =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let discarding = ref false in
  let closed = ref false in
  let overflow () =
    if not !discarding then begin
      ignore (Atomic.fetch_and_add t.c_bad_frames 1 : int);
      send conn
        (frame Json.Null
           (error_payload ~injected:false "bad_frame"
              (Printf.sprintf "frame exceeds %d bytes" t.cfg.max_frame_bytes)));
      discarding := true
    end;
    Buffer.clear buf
  in
  let process_lines () =
    let continue = ref true in
    while !continue do
      match take_line buf with
      | None ->
        if Buffer.length buf > t.cfg.max_frame_bytes then overflow ();
        continue := false
      | Some line ->
        (* In discard mode this line is the tail of an oversized frame
           already rejected — drop it and resynchronise. *)
        if !discarding then discarding := false
        else if String.trim line = "" then ()
        else handle_line t conn line
    done
  in
  while not !closed do
    process_lines ();
    if Atomic.get t.draining then closed := true
    else
      match Unix.select [ conn.fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ ->
        (match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | exception Unix.Unix_error _ -> closed := true
         | 0 ->
           (* EOF.  A half-closed socket (client shut down its write
              side) already got responses to every complete frame; a
              partial trailing frame is reported, not ignored. *)
           if Buffer.length buf > 0 && not !discarding then begin
             ignore (Atomic.fetch_and_add t.c_bad_frames 1 : int);
             send conn
               (frame Json.Null
                  (error_payload ~injected:false "bad_frame"
                     "truncated frame (missing newline before EOF)"))
           end;
           closed := true
         | n -> Buffer.add_subbytes buf chunk 0 n)
  done

(* ----- lifecycle ---------------------------------------------------- *)

let bind_listener cfg =
  try
    match cfg.listener with
    | Unix_path path ->
      (match Unix.stat path with
       | { Unix.st_kind = Unix.S_SOCK; _ } ->
         (* Stale socket from a dead daemon, or a live one?  Probe. *)
         let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         let live =
           try
             Unix.connect probe (Unix.ADDR_UNIX path);
             true
           with Unix.Unix_error _ -> false
         in
         (try Unix.close probe with Unix.Unix_error _ -> ());
         if live then failwith (path ^ ": a daemon is already listening")
         else Unix.unlink path
       | _ -> failwith (path ^ ": exists and is not a socket")
       | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind s (Unix.ADDR_UNIX path);
      Unix.listen s cfg.backlog;
      Ok s
    | Tcp (host, port) ->
      let addr =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception Failure _ ->
          (match Unix.gethostbyname host with
           | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
             failwith (host ^ ": cannot resolve")
           | { Unix.h_addr_list; _ } -> h_addr_list.(0))
      in
      let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.bind s (Unix.ADDR_INET (addr, port));
      Unix.listen s cfg.backlog;
      Ok s
  with
  | Failure m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
    Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

let create ?faults ~engine cfg =
  let plan =
    match faults with
    | Some p -> Ok (Some p)
    | None ->
      (match Faults.of_env () with
       | Ok p -> Ok p
       | Error e -> Error (Printf.sprintf "VDRAM_FAULTS: %s" e))
  in
  match plan with
  | Error e -> Error e
  | Ok plan ->
    (* A dead client must be an EPIPE on our write, not a fatal
       signal. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    (match bind_listener cfg with
     | Error e -> Error e
     | Ok lsock ->
       Ok
         {
           cfg;
           engine;
           plan;
           lsock;
           coalesce = Coalesce.create ();
           draining = Atomic.make false;
           inflight = Atomic.make 0;
           clients = Atomic.make 0;
           started = Unix.gettimeofday ();
           c_conns = Atomic.make 0;
           c_requests = Atomic.make 0;
           c_completed = Atomic.make 0;
           c_failed = Atomic.make 0;
           c_overloaded = Atomic.make 0;
           c_bad_frames = Atomic.make 0;
           c_item_failures = Atomic.make 0;
           c_injected = Atomic.make 0;
           mu = Mutex.create ();
           by_class = Hashtbl.create 8;
           registry = Hashtbl.create 16;
           next_seq = 0;
         })

let drain t = Atomic.set t.draining true
let draining t = Atomic.get t.draining
let address t = Unix.getsockname t.lsock
let coalesce_counters t = Coalesce.counters t.coalesce

let drain_finish t =
  let deadline = Unix.gettimeofday () +. t.cfg.drain_grace in
  while Atomic.get t.inflight > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  (* Whatever is still computing gets its terminal frame now; if its
     thread finishes later, the CAS makes it lose quietly. *)
  Mutex.lock t.mu;
  let leftovers = Hashtbl.fold (fun _ p acc -> p :: acc) t.registry [] in
  Mutex.unlock t.mu;
  List.iter
    (fun p ->
      if
        send_terminal p
          (error_payload ~injected:false "aborted"
             "server drained before the request finished")
      then ignore (Atomic.fetch_and_add t.c_failed 1 : int))
    leftovers;
  (* Let connection threads notice the drain flag and close. *)
  let conn_deadline = Unix.gettimeofday () +. 1.0 in
  while Atomic.get t.clients > 0 && Unix.gettimeofday () < conn_deadline do
    Thread.delay 0.05
  done;
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  match t.cfg.listener with
  | Unix_path path ->
    (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()

let serve t =
  let rec loop () =
    if Atomic.get t.draining then ()
    else
      match Unix.select [ t.lsock ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ ->
        (match Unix.accept ~cloexec:true t.lsock with
         | exception
             Unix.Unix_error
               ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                 | Unix.EWOULDBLOCK ),
                 _,
                 _ ) ->
           ()
         | fd, _ ->
           ignore (Atomic.fetch_and_add t.c_conns 1 : int);
           let conn = { fd; wmu = Mutex.create (); alive = true } in
           if Atomic.get t.clients >= t.cfg.max_clients then begin
             ignore (Atomic.fetch_and_add t.c_overloaded 1 : int);
             send conn
               (frame Json.Null
                  (error_payload ~injected:false "overloaded"
                     "too many connections"
                     ~extra:
                       [ ("retry_after_ms", jint t.cfg.retry_after_ms) ]));
             (try Unix.close fd with Unix.Unix_error _ -> ())
           end
           else begin
             ignore (Atomic.fetch_and_add t.clients 1 : int);
             ignore
               (Thread.create
                  (fun () ->
                    Fun.protect
                      ~finally:(fun () ->
                        conn.alive <- false;
                        (try Unix.close fd with Unix.Unix_error _ -> ());
                        ignore (Atomic.fetch_and_add t.clients (-1) : int))
                      (fun () ->
                        try handle_conn t conn with
                        | Unix.Unix_error _ | Sys_error _ -> ()))
                  ()
                 : Thread.t)
           end);
        loop ()
  in
  loop ();
  drain_finish t
