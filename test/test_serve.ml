(* The serve daemon: JSON framing, protocol decoding, coalescing and
   the socket-level server (fault isolation, admission, drain).

   Every server here gets an explicit fault plan ([Faults.none] unless
   the test injects), so a chaos [VDRAM_FAULTS] environment cannot
   perturb the suite.  All sockets are Unix-domain paths under the
   system temp directory. *)

module Json = Vdram_serve.Json
module Protocol = Vdram_serve.Protocol
module Render = Vdram_serve.Render
module Coalesce = Vdram_serve.Coalesce
module Server = Vdram_serve.Server
module Engine = Vdram_engine.Engine
module Faults = Vdram_engine.Faults
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model

let check_true = Helpers.check_true

(* ----- JSON ------------------------------------------------------------ *)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Num 0.0;
      Json.Num 42.0;
      Json.Num (-17.5);
      Json.Num 1e-3;
      Json.Str "";
      Json.Str "plain";
      Json.Str "quote\" slash\\ tab\t nl\n";
      Json.List [];
      Json.List [ Json.Num 1.0; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Num 1.0);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      check_true
        (Printf.sprintf "single-line frame: %s" s)
        (not (String.contains s '\n'));
      match Json.parse s with
      | Ok v' ->
        Alcotest.(check string)
          (Printf.sprintf "round-trip of %s" s)
          s (Json.to_string v')
      | Error e -> Alcotest.failf "re-parse of %s failed: %s" s e)
    cases;
  (* Escapes and unicode decode to the bytes we expect. *)
  (match parse_ok {|"aA\n\t"|} with
   | Json.Str s -> Alcotest.(check string) "\\uXXXX escape" "aA\n\t" s
   | _ -> Alcotest.fail "expected a string");
  (match parse_ok {|"😀"|} with
   | Json.Str s ->
     Alcotest.(check string) "surrogate pair to UTF-8" "\xf0\x9f\x98\x80" s
   | _ -> Alcotest.fail "expected a string");
  (match parse_ok "1e3" with
   | Json.Num v -> Helpers.close "exponent literal" 1000.0 v
   | _ -> Alcotest.fail "expected a number");
  (* Integral floats print compactly; non-finite collapses to null. *)
  Alcotest.(check string) "integral print" "1000" (Json.to_string (Json.Num 1000.));
  Alcotest.(check string) "nan prints null" "null" (Json.to_string (Json.Num Float.nan))

let json_rejects () =
  let bad =
    [
      "";
      "{";
      "[1,2";
      "1 2";
      "tru";
      "\"unterminated";
      {|"bad \q escape"|};
      {|"lone \ud800 surrogate"|};
      "\"raw \x01 control\"";
      String.concat "" (List.init 100 (fun _ -> "[")) ^ "1"
      ^ String.concat "" (List.init 100 (fun _ -> "]"));
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok v ->
        Alcotest.failf "hostile input %S parsed as %s" s (Json.to_string v))
    bad

(* ----- protocol -------------------------------------------------------- *)

let decode s =
  match Json.parse s with
  | Ok j -> Protocol.decode j
  | Error e -> Alcotest.failf "fixture %S is not JSON: %s" s e

let protocol_decode () =
  (match decode {|{"id":"x","op":"ping"}|} with
   | Ok { Protocol.id = Json.Str "x"; kind = Protocol.Ping; deadline = None } ->
     ()
   | Ok _ -> Alcotest.fail "ping decoded to the wrong request"
   | Error (_, e) -> Alcotest.failf "ping rejected: %s" e);
  (match decode {|{"op":"eval"}|} with
   | Ok { Protocol.id = Json.Null; kind = Protocol.Eval _; _ } -> ()
   | Ok _ -> Alcotest.fail "bare eval decoded to the wrong request"
   | Error (_, e) -> Alcotest.failf "bare eval rejected: %s" e);
  (match decode {|{"op":"corners","samples":50,"spread":0.2,"deadline":1.5}|} with
   | Ok
       {
         Protocol.kind = Protocol.Corners { samples = 50; spread; _ };
         deadline = Some d;
         _;
       } ->
     Helpers.close "spread decoded" 0.2 spread;
     Helpers.close "deadline decoded" 1.5 d
   | Ok _ -> Alcotest.fail "corners decoded to the wrong request"
   | Error (_, e) -> Alcotest.failf "corners rejected: %s" e);
  (* Defaults are applied, not required. *)
  (match decode {|{"op":"sensitivity"}|} with
   | Ok { Protocol.kind = Protocol.Sensitivity { top = 15; _ }; _ } -> ()
   | Ok _ -> Alcotest.fail "sensitivity default top missing"
   | Error (_, e) -> Alcotest.failf "sensitivity rejected: %s" e);
  let rejected ?(id = Json.Null) s =
    match decode s with
    | Error (got_id, _) ->
      Alcotest.(check string)
        (Printf.sprintf "error echoes id for %s" s)
        (Json.to_string id) (Json.to_string got_id)
    | Ok _ -> Alcotest.failf "bad request %S decoded" s
  in
  rejected {|{"op":"nope"}|};
  rejected {|{"op":"eval","deadline":-1}|};
  rejected {|{"op":"corners","samples":0}|};
  rejected ~id:(Json.Num 7.) {|{"id":7,"op":"sweep","lens":"vdd"}|};
  rejected {|["not","an","object"]|};
  rejected {|{"no_op":true}|}

let req s =
  match decode s with
  | Ok r -> r
  | Error (_, e) -> Alcotest.failf "request %S rejected: %s" s e

let protocol_work_key () =
  let k s = Protocol.work_key (req s) in
  (* Identity: same work, different id, same key. *)
  (match (k {|{"id":"a","op":"eval"}|}, k {|{"id":"b","op":"eval"}|}) with
   | Some a, Some b -> Alcotest.(check string) "id is not part of the key" a b
   | _ -> Alcotest.fail "eval requests must have keys");
  let distinct msg a b =
    match (k a, k b) with
    | Some ka, Some kb ->
      check_true msg (not (String.equal ka kb))
    | _ -> Alcotest.fail "both requests must have keys"
  in
  distinct "samples differ the key" {|{"op":"corners","samples":10}|}
    {|{"op":"corners","samples":11}|};
  distinct "deadline differs the key" {|{"op":"eval"}|}
    {|{"op":"eval","deadline":2}|};
  distinct "op differs the key" {|{"op":"eval"}|} {|{"op":"sensitivity"}|};
  check_true "ping is never coalesced" (k {|{"op":"ping"}|} = None);
  check_true "stats is never coalesced" (k {|{"op":"stats"}|} = None)

(* ----- render bit-identity --------------------------------------------- *)

let default_spec =
  {
    Protocol.source = None;
    node = None;
    density_mbits = None;
    io_width = None;
    datarate = None;
  }

let default_power_text () =
  match Protocol.resolve_config default_spec with
  | Error e -> Alcotest.failf "default config: %s" e
  | Ok (cfg, stored) ->
    (match Protocol.resolve_pattern cfg stored None with
     | Error e -> Alcotest.failf "default pattern: %s" e
     | Ok p ->
       ( cfg,
         p,
         Render.to_string
           (fun ppf () -> Render.power ~eval:Model.pattern_power ppf cfg p)
           () ))

let render_engine_identity () =
  let cfg, p, cli = default_power_text () in
  let e = Engine.create ~jobs:1 () in
  let served =
    Render.to_string
      (fun ppf () -> Render.power ~eval:(Engine.eval e) ppf cfg p)
      ()
  in
  Alcotest.(check string) "engine-backed render equals model-backed" cli served;
  check_true "report is non-trivial" (String.length cli > 200)

(* ----- coalescing ------------------------------------------------------ *)

let coalesce_single_flight () =
  let c : int Coalesce.t = Coalesce.create () in
  let n = 6 in
  let computed = Atomic.make 0 in
  let results = Array.make n (-1) in
  let f () =
    Atomic.incr computed;
    (* Followers increment the shared counter before blocking, so the
       leader can hold the flight open until every thread has joined —
       this is what makes "exactly one computation" deterministic. *)
    let rec wait () =
      let _, shared = Coalesce.counters c in
      if shared < n - 1 then begin
        Thread.yield ();
        wait ()
      end
    in
    wait ();
    42
  in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            match Coalesce.run c ~key:"k" f with
            | `Led v | `Shared v -> results.(i) <- v)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "exactly one computation" 1 (Atomic.get computed);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "caller %d shares" i) 42 v)
    results;
  let led, shared = Coalesce.counters c in
  Alcotest.(check (pair int int)) "counters" (1, n - 1) (led, shared);
  (* The flight is gone: a later caller computes afresh. *)
  (match Coalesce.run c ~key:"k" (fun () -> Atomic.incr computed; 7) with
   | `Led 7 -> ()
   | _ -> Alcotest.fail "post-flight caller must lead");
  Alcotest.(check int) "fresh flight recomputes" 2 (Atomic.get computed)

let coalesce_error_propagation () =
  let c : int Coalesce.t = Coalesce.create () in
  let computed = Atomic.make 0 in
  let outcomes = Array.make 2 "pending" in
  let f () =
    Atomic.incr computed;
    let rec wait () =
      let _, shared = Coalesce.counters c in
      if shared < 1 then begin
        Thread.yield ();
        wait ()
      end
    in
    wait ();
    failwith "boom"
  in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun () ->
            outcomes.(i) <-
              (match Coalesce.run c ~key:"k" f with
               | `Led _ | `Shared _ -> "value"
               | exception Failure m -> "raised " ^ m))
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "one computation" 1 (Atomic.get computed);
  Array.iter
    (fun o -> Alcotest.(check string) "both callers re-raise" "raised boom" o)
    outcomes

(* ----- socket-level server --------------------------------------------- *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "vdram-serve-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* Boot a daemon on a fresh Unix socket, run [f server path], then
   drain and check the listener was unlinked — every test doubles as a
   clean-drain test. *)
let with_server ?(faults = Faults.none) ?(max_inflight = 8)
    ?(max_frame_bytes = 1 lsl 20) ?(drain_grace = 5.0)
    ?(engine = Engine.create ~jobs:1 ()) f =
  let path = fresh_sock () in
  let cfg =
    {
      (Server.default_config (Server.Unix_path path)) with
      Server.max_inflight;
      max_frame_bytes;
      drain_grace;
    }
  in
  match Server.create ~faults ~engine cfg with
  | Error e -> Alcotest.failf "server boot: %s" e
  | Ok server ->
    let th = Thread.create (fun () -> Server.serve server) () in
    Fun.protect
      ~finally:(fun () ->
        Server.drain server;
        Thread.join th;
        check_true "socket unlinked after drain" (not (Sys.file_exists path)))
      (fun () -> f server path)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_raw fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let send_line fd s = send_raw fd (s ^ "\n")

(* Read until [n] complete frames arrived, EOF, or timeout; parse each
   line as JSON. *)
let recv_frames ?(timeout = 30.0) fd n =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let frames = ref [] in
  let count = ref 0 in
  let deadline = Unix.gettimeofday () +. timeout in
  let split () =
    let continue = ref true in
    while !continue do
      let s = Buffer.contents buf in
      match String.index_opt s '\n' with
      | None -> continue := false
      | Some i ->
        frames := String.sub s 0 i :: !frames;
        incr count;
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1)
    done
  in
  let rec go () =
    if !count < n && Unix.gettimeofday () < deadline then
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          split ();
          go ())
  in
  go ();
  List.rev_map
    (fun line ->
      match Json.parse line with
      | Ok j -> j
      | Error e -> Alcotest.failf "unparseable frame %S: %s" line e)
    !frames

let jget frame k =
  match Json.mem k frame with
  | Some v -> v
  | None ->
    Alcotest.failf "frame %s lacks field %S" (Json.to_string frame) k

let jstr frame k =
  match Json.str (jget frame k) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" k

let jbool frame k =
  match Json.bool_ (jget frame k) with
  | Some b -> b
  | None -> Alcotest.failf "field %S is not a bool" k

let one = function
  | [ f ] -> f
  | l -> Alcotest.failf "expected exactly one frame, got %d" (List.length l)

let server_basics () =
  let _, _, expected = default_power_text () in
  with_server (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"p1","op":"ping"}|};
      let ping = one (recv_frames fd 1) in
      Alcotest.(check string) "ping ok" "ok" (jstr ping "status");
      Alcotest.(check string) "ping op" "ping" (jstr ping "op");
      Alcotest.(check string) "ping echoes id" "p1"
        (match Json.mem "id" ping with
         | Some (Json.Str s) -> s
         | _ -> "<missing>");
      send_line fd {|{"id":"e1","op":"eval"}|};
      let ev = one (recv_frames fd 1) in
      Alcotest.(check string) "eval ok" "ok" (jstr ev "status");
      (* The headline property: the daemon's text equals the one-shot
         CLI's stdout for the same request, byte for byte. *)
      Alcotest.(check string) "serve text is bit-identical to the CLI"
        expected (jstr ev "text");
      check_true "solo request is not coalesced" (not (jbool ev "coalesced"));
      send_line fd {|{"id":"s1","op":"stats"}|};
      let st = one (recv_frames fd 1) in
      Alcotest.(check string) "stats ok" "ok" (jstr st "status");
      let stats = jget st "stats" in
      let requests = jget stats "requests" in
      (match Json.int_ (jget requests "received") with
       | Some n -> check_true "stats counts requests" (n >= 3)
       | None -> Alcotest.fail "requests.received is not an int");
      check_true "engine block present" (Json.mem "engine" stats <> None);
      Unix.close fd)

let server_bad_frames () =
  with_server ~max_frame_bytes:256 (fun _server path ->
      let fd = connect path in
      (* Garbage JSON: structured rejection, connection survives. *)
      send_line fd "this is not json";
      let e1 = one (recv_frames fd 1) in
      Alcotest.(check string) "garbage status" "error" (jstr e1 "status");
      Alcotest.(check string) "garbage class" "bad_frame" (jstr e1 "class");
      (* Valid JSON, invalid request: bad_request with the id echoed. *)
      send_line fd {|{"id":"br","op":"warp"}|};
      let e2 = one (recv_frames fd 1) in
      Alcotest.(check string) "bad request class" "bad_request"
        (jstr e2 "class");
      Alcotest.(check string) "bad request echoes id" "br"
        (match Json.mem "id" e2 with
         | Some (Json.Str s) -> s
         | _ -> "<missing>");
      (* Oversized line: rejected at the cap, stream resyncs at the
         next newline and the connection keeps working. *)
      send_raw fd (String.make 400 'x');
      let e3 = one (recv_frames fd 1) in
      Alcotest.(check string) "oversized class" "bad_frame" (jstr e3 "class");
      send_raw fd "tail of the oversized frame\n";
      send_line fd {|{"id":"p2","op":"ping"}|};
      let ok = one (recv_frames fd 1) in
      Alcotest.(check string) "connection survives hostile frames" "ok"
        (jstr ok "status");
      Unix.close fd)

let server_split_frames () =
  with_server (fun _server path ->
      let fd = connect path in
      (* One frame delivered across three writes must decode once. *)
      send_raw fd {|{"id":"sp","op":|};
      Thread.delay 0.05;
      send_raw fd {|"ping"}|};
      Thread.delay 0.05;
      send_raw fd "\n";
      let ok = one (recv_frames fd 1) in
      Alcotest.(check string) "split frame decodes" "ok" (jstr ok "status");
      (* Two frames in one write both decode. *)
      send_raw fd
        ({|{"id":"a","op":"ping"}|} ^ "\n" ^ {|{"id":"b","op":"ping"}|} ^ "\n");
      let frames = recv_frames fd 2 in
      Alcotest.(check int) "pipelined frames" 2 (List.length frames);
      List.iter
        (fun f -> Alcotest.(check string) "pipelined ok" "ok" (jstr f "status"))
        frames;
      Unix.close fd)

let server_half_close () =
  with_server (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"h","op":"ping"}|};
      send_raw fd {|{"partial":|};
      (* Half-close: we stop writing; the daemon must still answer the
         complete frame and flag the truncated one. *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let frames = recv_frames fd 2 in
      (match frames with
       | [ ok; err ] ->
         Alcotest.(check string) "ping answered after half-close" "ok"
           (jstr ok "status");
         Alcotest.(check string) "truncated tail flagged" "bad_frame"
           (jstr err "class");
         check_true "truncation mentioned"
           (String.length (jstr err "message") > 0)
       | l -> Alcotest.failf "expected 2 frames, got %d" (List.length l));
      (* Server closes its side after EOF. *)
      let tail = recv_frames ~timeout:5.0 fd 1 in
      Alcotest.(check int) "no frames after close" 0 (List.length tail);
      Unix.close fd)

let stall_plan per_item =
  {
    Faults.seed = 0;
    rate = 1.0;
    action = Some (Faults.Stall (Faults.Mix, per_item));
  }

let server_coalescing () =
  (* Every item stalls 80 ms in the mix stage, so the 8-sample corners
     computation holds its flight open for >0.6 s — room for the three
     followers to join.  The coalesce counters then prove exactly one
     computation ran: compute() is only ever invoked by a leader. *)
  with_server ~faults:(stall_plan 0.08) (fun server path ->
      let n = 4 in
      let results = Array.make n None in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                let fd = connect path in
                send_line fd {|{"id":"c","op":"corners","samples":8}|};
                (match recv_frames fd 1 with
                 | [ f ] -> results.(i) <- Some f
                 | _ -> ());
                Unix.close fd)
              ())
      in
      List.iter Thread.join threads;
      let frames =
        Array.to_list results
        |> List.map (function
             | Some f -> f
             | None -> Alcotest.fail "a client got no terminal frame")
      in
      List.iter
        (fun f ->
          Alcotest.(check string) "coalesced request ok" "ok" (jstr f "status"))
        frames;
      let texts = List.map (fun f -> jstr f "text") frames in
      List.iter
        (fun t ->
          Alcotest.(check string) "all callers share one result"
            (List.hd texts) t)
        texts;
      let led, shared = Server.coalesce_counters server in
      Alcotest.(check (pair int int))
        "counter-verified: one computation, three shares" (1, n - 1)
        (led, shared);
      let coalesced =
        List.length (List.filter (fun f -> jbool f "coalesced") frames)
      in
      Alcotest.(check int) "three responses marked coalesced" (n - 1) coalesced)

let server_fault_isolation () =
  let plan =
    {
      Faults.seed = 3;
      rate = 1.0;
      action = Some (Faults.Raise Faults.Mix);
    }
  in
  with_server ~faults:plan (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"f1","op":"eval"}|};
      let e1 = one (recv_frames fd 1) in
      Alcotest.(check string) "injected fault fails the request" "error"
        (jstr e1 "status");
      Alcotest.(check string) "classified at its stage" "mix"
        (jstr e1 "class");
      check_true "flagged as injected" (jbool e1 "injected");
      (* The daemon itself is unharmed: the next request is served. *)
      send_line fd {|{"id":"p","op":"ping"}|};
      let ok = one (recv_frames fd 1) in
      Alcotest.(check string) "daemon survives the fault" "ok"
        (jstr ok "status");
      send_line fd {|{"id":"s","op":"stats"}|};
      let st = one (recv_frames fd 1) in
      let failures = jget (jget st "stats") "failures" in
      (match
         (Json.int_ (jget failures "items"), Json.int_ (jget failures "injected"))
       with
       | Some items, Some injected ->
         check_true "failures counted" (items >= 1);
         Alcotest.(check int) "all failures are injected" items injected
       | _ -> Alcotest.fail "failure counters are not ints");
      Unix.close fd)

let server_deadline () =
  (* Each item stalls 150 ms; a 50 ms per-item deadline must classify
     the overrun as a deadline failure, not a success. *)
  with_server ~faults:(stall_plan 0.15) (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"d","op":"eval","deadline":0.05}|};
      let f = one (recv_frames fd 1) in
      Alcotest.(check string) "deadline overrun is an error" "error"
        (jstr f "status");
      Alcotest.(check string) "classified as deadline" "deadline"
        (jstr f "class");
      Unix.close fd)

let server_overload () =
  with_server ~faults:(stall_plan 0.08) ~max_inflight:1
    (fun _server path ->
      let fd1 = connect path in
      send_line fd1 {|{"id":"slow","op":"corners","samples":8}|};
      Thread.delay 0.25;
      (* Different work key, so it cannot coalesce with the in-flight
         request: admission control must reject it immediately. *)
      let fd2 = connect path in
      send_line fd2 {|{"id":"fast","op":"corners","samples":7}|};
      let rej = one (recv_frames fd2 1) in
      Alcotest.(check string) "rejected" "error" (jstr rej "status");
      Alcotest.(check string) "classified overloaded" "overloaded"
        (jstr rej "class");
      (match Json.int_ (jget rej "retry_after_ms") with
       | Some ms -> check_true "retry hint present" (ms > 0)
       | None -> Alcotest.fail "retry_after_ms missing");
      (* Ping bypasses admission even while saturated. *)
      send_line fd2 {|{"id":"p","op":"ping"}|};
      let ping = one (recv_frames fd2 1) in
      Alcotest.(check string) "ping bypasses admission" "ok"
        (jstr ping "status");
      (* The slow request still completes normally. *)
      let slow = one (recv_frames fd1 1) in
      Alcotest.(check string) "in-flight request completes" "ok"
        (jstr slow "status");
      Unix.close fd1;
      Unix.close fd2)

let server_sweep_streams () =
  with_server (fun _server path ->
      let fd = connect path in
      send_line fd
        ({|{"id":"sw","op":"sweep","lens":"external voltage Vdd",|}
        ^ {|"factors":[0.9,0.92,0.94,0.96,0.98,1.0,1.02,1.04,1.06,1.1]}|});
      (* Ten factors stream as two chunks of eight, then a terminal. *)
      let frames = recv_frames fd 3 in
      (match frames with
       | [ p0; p1; term ] ->
         Alcotest.(check string) "first part" "part" (jstr p0 "status");
         Alcotest.(check string) "second part" "part" (jstr p1 "status");
         Alcotest.(check string) "terminal ok" "ok" (jstr term "status");
         Alcotest.(check string) "terminal op" "sweep" (jstr term "op");
         check_true "terminal carries the rendered text"
           (String.length (jstr term "text") > 0)
       | l -> Alcotest.failf "expected 3 frames, got %d" (List.length l));
      (* Unknown lens is a per-request error, not a dead daemon. *)
      send_line fd {|{"id":"bad","op":"sweep","lens":"warp","factors":[1.0]}|};
      let err = one (recv_frames fd 1) in
      Alcotest.(check string) "unknown lens rejected" "bad_request"
        (jstr err "class");
      send_line fd {|{"id":"p","op":"ping"}|};
      Alcotest.(check string) "daemon alive after lens error" "ok"
        (jstr (one (recv_frames fd 1)) "status");
      Unix.close fd)

let server_drain_aborts () =
  (* A request stalling ~1.5 s against a 0.2 s drain grace must be
     force-aborted with exactly one terminal frame. *)
  with_server ~faults:(stall_plan 0.15) ~drain_grace:0.2
    (fun server path ->
      let fd = connect path in
      send_line fd {|{"id":"long","op":"corners","samples":10}|};
      Thread.delay 0.3;
      Server.drain server;
      (* Collect everything until the server closes the connection. *)
      let frames = recv_frames ~timeout:10.0 fd 99 in
      let terminals =
        List.filter
          (fun f ->
            match jstr f "status" with "ok" | "error" -> true | _ -> false)
          frames
      in
      (match terminals with
       | [ t ] ->
         Alcotest.(check string) "aborted terminal" "error" (jstr t "status");
         Alcotest.(check string) "classified aborted" "aborted"
           (jstr t "class")
       | l ->
         Alcotest.failf "expected exactly one terminal frame, got %d"
           (List.length l));
      Unix.close fd)

let server_bad_datarate () =
  (* An unparseable data rate is a bad request, never the node's
     default device. *)
  with_server (fun _server path ->
      let fd = connect path in
      send_line fd
        {|{"id":"d","op":"eval","config":{"node":"55nm","datarate":"garbage"}}|};
      let e = one (recv_frames fd 1) in
      Alcotest.(check string) "error status" "error" (jstr e "status");
      Alcotest.(check string) "bad request class" "bad_request"
        (jstr e "class");
      Alcotest.(check string) "message names the value"
        "bad datarate \"garbage\"" (jstr e "message");
      check_true "no text" (Json.mem "text" e = None);
      Unix.close fd)

let suite =
  [
    Alcotest.test_case "json round-trip and escapes" `Quick json_roundtrip;
    Alcotest.test_case "json rejects hostile input" `Quick json_rejects;
    Alcotest.test_case "protocol decode and defaults" `Quick protocol_decode;
    Alcotest.test_case "protocol work keys" `Quick protocol_work_key;
    Alcotest.test_case "render: engine equals model" `Quick
      render_engine_identity;
    Alcotest.test_case "coalesce: deterministic single flight" `Quick
      coalesce_single_flight;
    Alcotest.test_case "coalesce: errors propagate to all" `Quick
      coalesce_error_propagation;
    Alcotest.test_case "server: ping, eval bit-identity, stats" `Quick
      server_basics;
    Alcotest.test_case "server: hostile frames" `Quick server_bad_frames;
    Alcotest.test_case "server: split and pipelined frames" `Quick
      server_split_frames;
    Alcotest.test_case "server: half-closed socket" `Quick server_half_close;
    Alcotest.test_case "server: coalescing is counter-verified" `Quick
      server_coalescing;
    Alcotest.test_case "server: injected faults are isolated" `Quick
      server_fault_isolation;
    Alcotest.test_case "server: deadline classification" `Quick server_deadline;
    Alcotest.test_case "server: admission control" `Quick server_overload;
    Alcotest.test_case "server: sweep streams parts" `Quick
      server_sweep_streams;
    Alcotest.test_case "server: drain aborts with one terminal" `Quick
      server_drain_aborts;
    Alcotest.test_case "server: bad datarate is an error frame" `Quick
      server_bad_datarate;
  ]
