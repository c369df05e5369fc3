(* serve-mixed: a real `vdram serve --socket S --jobs 1` driven by a
   closed loop of two connections from this process.

   Each connection sends its next request only after the previous
   reply arrived, like a script or notebook waiting on each call.  The
   seeded mix: about 75 % `eval` by the knob fields over 14 nodes x 3
   patterns, 10 % `eval` of an inline `examples/*.dram` source, 12 %
   `sensitivity`, 3 % `corners` at 200 samples.  Every reply's `text`
   is checked byte for byte against the in-process rendering of the
   same request: `Render.power` over direct `Model.pattern_power` for
   `eval`, the one-shot analyses for the others.

   The traced run replays the recorded requests in process through
   the layers the daemon is made of — JSON parse, protocol decode,
   resolution (with DSL parse and elaboration for inline sources),
   supervision, engine, render, JSON print — so the time the daemon
   spends outside them (threads, sockets, framing) is the measured
   round trip minus the replay. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Report = Vdram_core.Report
module Node = Vdram_tech.Node
module Engine = Vdram_engine.Engine
module Supervise = Vdram_engine.Supervise
module Faults = Vdram_engine.Faults
module Sensitivity = Vdram_analysis.Sensitivity
module Corners = Vdram_analysis.Corners
module Json = Vdram_serve.Json
module Protocol = Vdram_serve.Protocol
module Render = Vdram_serve.Render
module Parser = Vdram_dsl.Parser
module Elaborate = Vdram_dsl.Elaborate

let span = Trace.span
let exe = "_build/default/bin/vdram.exe"
let connections = 2
let corner_samples = 200
let daemons = 4
let extra_spawns = 5
let warmup = 1.0

(* ----- the request universe ---------------------------------------- *)

type op = Eval | Inline | Sens | Corn

type key = { op : op; subject : int; pattern : int }

let examples =
  [ "ddr3_1gb.dram"; "ddr5_16g.dram"; "inefficient.dram"; "lpddr_mobile.dram"; "sdr_128m.dram" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Pattern 0 is the request default (the Idd7-like mix); 1 and 2 are
   explicit Idd0 and Idd4R loop strings. *)
let pattern_field node k =
  if k = 0 then []
  else
    let spec = (Config.commodity ~node ()).Config.spec in
    let p = if k = 1 then Pattern.idd0 spec else Pattern.idd4r spec in
    [ ("pattern", Json.Str (Pattern.to_string p)) ]

let fields sources k =
  let node () = List.nth Node.all k.subject in
  let knob () = ("config", Json.Obj [ ("node", Json.Str (Node.name (node ()))) ]) in
  match k.op with
  | Eval -> (("op", Json.Str "eval") :: [ knob () ]) @ pattern_field (node ()) k.pattern
  | Inline ->
    [ ("op", Json.Str "eval"); ("config", Json.Obj [ ("source", Json.Str sources.(k.subject)) ]) ]
  | Sens -> (("op", Json.Str "sensitivity") :: [ knob () ]) @ pattern_field (node ()) k.pattern
  | Corn ->
    [ ("op", Json.Str "corners"); knob (); ("samples", Json.Num (float_of_int corner_samples)) ]

(* Request kinds are dealt from shuffled decks of 100 — 75 knob
   evals, 10 inline-source evals, 12 sensitivity, 3 corners — so every
   run sends the same mix; the seed picks the order, the devices and
   the patterns. *)
let deck = Array.concat [ Array.make 75 Eval; Array.make 10 Inline; Array.make 12 Sens; Array.make 3 Corn ]

let dealer rng =
  let cards = Array.copy deck and next = ref (Array.length deck) in
  fun () ->
    if !next = Array.length cards then begin
      for i = Array.length cards - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = cards.(i) in
        cards.(i) <- cards.(j);
        cards.(j) <- t
      done;
      next := 0
    end;
    let op = cards.(!next) in
    incr next;
    let nodes = List.length Node.all in
    match op with
    | Eval | Sens -> { op; subject = Random.State.int rng nodes; pattern = Random.State.int rng 3 }
    | Inline -> { op; subject = Random.State.int rng (List.length examples); pattern = 0 }
    | Corn -> { op; subject = Random.State.int rng nodes; pattern = 0 }

let universe () =
  let nodes = List.length Node.all in
  List.concat
    [
      List.concat_map (fun s -> List.init 3 (fun p -> { op = Eval; subject = s; pattern = p })) (List.init nodes Fun.id);
      List.init (List.length examples) (fun s -> { op = Inline; subject = s; pattern = 0 });
      List.concat_map (fun s -> List.init 3 (fun p -> { op = Sens; subject = s; pattern = p })) (List.init nodes Fun.id);
      List.init nodes (fun s -> { op = Corn; subject = s; pattern = 0 });
    ]

(* The request line without its id: "{\"id\":N," ^ tail. *)
let tail sources k =
  let s = Json.to_string (Json.Obj (fields sources k)) in
  String.sub s 1 (String.length s - 1)

let line tails id k = Printf.sprintf "{\"id\":%d,%s" id (Hashtbl.find tails k)

(* The expected reply text of a request, rendered in process. *)
let expected sources k =
  let req =
    match Protocol.decode (Result.get_ok (Json.parse ("{" ^ tail sources k))) with
    | Ok r -> r
    | Error (_, e) -> failwith e
  in
  let device spec pattern =
    match Protocol.resolve_config spec with
    | Error e -> failwith e
    | Ok (cfg, stored) -> (cfg, Result.get_ok (Protocol.resolve_pattern cfg stored pattern))
  in
  match req.Protocol.kind with
  | Protocol.Eval { spec; pattern } ->
    let cfg, p = device spec pattern in
    Render.to_string (fun ppf () -> Render.power ~eval:Model.pattern_power ppf cfg p) ()
  | Protocol.Sensitivity { spec; pattern; top; variation } ->
    let cfg, p = device spec pattern in
    Render.to_string (Render.sensitivity ~top) (Sensitivity.run ?variation ~pattern:p cfg)
  | Protocol.Corners { spec; pattern; samples; spread } ->
    let cfg, p = device spec pattern in
    Render.to_string
      (Render.corners ~config_name:cfg.Config.name ~pattern_name:p.Pattern.name)
      (Corners.run ~samples ~spread ~pattern:p cfg)
  | _ -> failwith "unexpected op"

(* ----- the daemon -------------------------------------------------- *)

type daemon = { pid : int; sock : string }

let live : daemon option ref = ref None

let connect path =
  let t_end = Util.now () + 10_000_000_000 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when Util.now () < t_end ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

type conn = { ic : in_channel; oc : out_channel }

let open_conn path =
  let fd = connect path in
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_conn c = close_in_noerr c.ic

let rpc c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t_end = Util.now () + 10_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () < t_end ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := None;
  if Sys.file_exists d.sock then Sys.remove d.sock

let () = at_exit (fun () -> Option.iter stop !live)

(* Spawn a daemon and time it until its first `ping` reply. *)
let spawn () =
  let sock = Filename.concat Util.out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let log = Unix.openfile (Filename.concat Util.out_dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Util.now () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; sock; "--jobs"; "1" |] null log log
  in
  Unix.close null;
  Unix.close log;
  let d = { pid; sock } in
  live := Some d;
  let c = open_conn sock in
  let reply = rpc c "{\"id\":0,\"op\":\"ping\"}" in
  let dt = Util.since t0 in
  close_conn c;
  if not (String.length reply > 0) then failwith "serve: empty ping reply";
  (d, dt)

(* Send every request of the universe once, so each daemon's caches
   and heap hold the same work before anything is timed. *)
let prime_with tails d =
  let c = open_conn d.sock in
  Hashtbl.iter (fun k _ -> ignore (rpc c (line tails 0 k))) tails;
  close_conn c

(* ----- the closed loop --------------------------------------------- *)

type sample = { k : key; id : int; sent : int; rtt : float; ok : bool; text : string }

let text_of reply =
  match Json.parse reply with
  | Ok j ->
    let ok = Option.bind (Json.mem "status" j) Json.str = Some "ok" in
    (ok, Option.value (Option.bind (Json.mem "text" j) Json.str) ~default:"")
  | Error _ -> (false, "")

(* One connection's loop until [t_end]; returns its samples. *)
let client ~sock ~tails ~seed ~index ~t_end =
  let draw = dealer (Util.rng seed index) in
  let c = open_conn sock in
  let acc = ref [] and n = ref 0 in
  while Util.now () < t_end do
    let k = draw () in
    let id = (index * 1_000_000_000) + !n in
    let l = line tails id k in
    let sent = Util.now () in
    let reply = rpc c l in
    let rtt = Util.since sent in
    let ok, text = text_of reply in
    acc := { k; id; sent; rtt; ok; text } :: !acc;
    incr n
  done;
  close_conn c;
  !acc

(* [seed] is any int; each connection salts it with its index. *)
let closed_loop ~sock ~tails ~seed ~seconds =
  let t_end = Util.now () + int_of_float (seconds *. 1e9) in
  let t0 = Util.now () in
  let results = Array.make connections [] in
  let workers =
    List.init connections (fun index ->
        Thread.create (fun () -> results.(index) <- client ~sock ~tails ~seed ~index ~t_end) ())
  in
  List.iter Thread.join workers;
  let samples = List.concat (Array.to_list results) in
  (List.sort (fun a b -> compare a.sent b.sent) samples, Util.since t0)

(* Replies checked against the expected texts: how many differ. *)
let mismatches expected samples =
  List.length (List.filter (fun s -> s.ok && s.text <> Hashtbl.find expected s.k) samples)

let daemon_stats sock =
  let c = open_conn sock in
  let reply = rpc c "{\"id\":0,\"op\":\"stats\"}" in
  close_conn c;
  Result.get_ok (Json.parse reply)

let hit_share stats stage =
  let get path =
    List.fold_left (fun j k -> Option.bind j (Json.mem k)) (Some stats) path
    |> fun j -> Option.value (Option.bind j Json.num) ~default:0.0
  in
  let h = get [ "stats"; "engine"; stage; "hits" ] and m = get [ "stats"; "engine"; stage; "misses" ] in
  if h +. m = 0.0 then 0.0 else h /. (h +. m)

(* ----- the in-process replay --------------------------------------- *)

let policy = { Supervise.keep_going = true; max_failures = None; deadline = None }

(* Resolution as [Protocol.resolve_config] does it, with the DSL parse
   and elaboration of inline sources as their own calls. *)
let resolve (spec : Protocol.config_spec) pattern =
  let cfg, stored =
    match spec.Protocol.source with
    | Some src ->
      let ast = Result.get_ok (span "dsl.parse" (fun () -> Parser.parse src)) in
      let e =
        Result.get_ok (span "dsl.elaborate" (fun () -> Elaborate.to_result (Elaborate.elaborate ast)))
      in
      (e.Elaborate.config, e.Elaborate.pattern)
    | None -> Result.get_ok (Protocol.resolve_config spec)
  in
  (cfg, Result.get_ok (Protocol.resolve_pattern cfg stored pattern))

(* One request through the daemon's layers; returns the reply text. *)
let replay_one engine line =
  let j = Result.get_ok (span "serve.json.parse" (fun () -> Json.parse line)) in
  let req = Result.get_ok (span "serve.protocol.decode" (fun () -> Protocol.decode j)) in
  let supervised f =
    span "engine.supervise" (fun () ->
        let sup = Supervise.create ~policy ~faults:Faults.none () in
        f sup)
  in
  let eval c p = span "engine.cache" (fun () -> Engine.eval engine c p) in
  let text, data =
    match req.Protocol.kind with
    | Protocol.Eval { spec; pattern } ->
      let cfg, p = span "serve.protocol.resolve" (fun () -> resolve spec pattern) in
      supervised (fun sup ->
          let under = Trace.here () in
          match
            Supervise.map sup engine
              ~check:(fun (_, r) -> Supervise.finite_report r)
              (fun () ->
                let text =
                  span ?under "serve.render" (fun () ->
                      Render.to_string (fun ppf () -> Render.power ~eval ppf cfg p) ())
                in
                (text, eval cfg p))
              [ () ]
          with
          | [ Supervise.Done (text, r) ] -> (text, Json.Obj [ ("power_w", Json.Num r.Report.power) ])
          | _ -> failwith "replay: eval failed")
    | Protocol.Sensitivity { spec; pattern; top; variation } ->
      let cfg, p = span "serve.protocol.resolve" (fun () -> resolve spec pattern) in
      supervised (fun supervisor ->
          let s =
            span "analysis.sensitivity" (fun () ->
                Sensitivity.run ~engine ~supervisor ?variation ~pattern:p cfg)
          in
          ( span "serve.render" (fun () -> Render.to_string (Render.sensitivity ~top) s),
            Json.Num s.Sensitivity.nominal_power ))
    | Protocol.Corners { spec; pattern; samples; spread } ->
      let cfg, p = span "serve.protocol.resolve" (fun () -> resolve spec pattern) in
      supervised (fun supervisor ->
          let d =
            span "analysis.corners" (fun () ->
                Corners.run ~engine ~supervisor ~samples ~spread ~pattern:p cfg)
          in
          ( span "serve.render" (fun () ->
                Render.to_string
                  (Render.corners ~config_name:cfg.Config.name ~pattern_name:p.Pattern.name)
                  d),
            Json.Num d.Corners.mean ))
    | _ -> failwith "replay: unexpected op"
  in
  ignore
    (span "serve.json.print" (fun () ->
         Json.to_string
           (Json.Obj
              [
                ("id", req.Protocol.id); ("status", Json.Str "ok"); ("text", Json.Str text);
                ("data", data); ("failures", Json.Num 0.0); ("coalesced", Json.Bool false);
                ("elapsed_ms", Json.Num 0.1);
              ])));
  text

let direct_device sources k =
  match Protocol.decode (Result.get_ok (Json.parse ("{" ^ tail sources k))) with
  | Ok { Protocol.kind = Protocol.Eval { spec; pattern }; _ } ->
    let cfg, stored = Result.get_ok (Protocol.resolve_config spec) in
    (cfg, Result.get_ok (Protocol.resolve_pattern cfg stored pattern))
  | _ -> failwith "direct_device: not an eval"

(* Requests replayed per traced pass: enough for stable per-call means
   while leaving room for several passes. *)
let replay_requests = 3000

(* ----- the workload ------------------------------------------------ *)

let run ~seed ~seconds ~trace =
  let sources = Array.of_list (List.map (fun f -> read_file (Filename.concat "examples" f)) examples) in
  let keys = universe () in
  let tails = Hashtbl.create 128 and expect = Hashtbl.create 128 in
  List.iter
    (fun k ->
      Hashtbl.replace tails k (tail sources k);
      Hashtbl.replace expect k (expected sources k))
    keys;
  let prime = prime_with tails in
  if not trace then begin
    (* Several daemons in turn, since a daemon's speed depends on where
       its heap landed; each serves one-second windows of the closed
       loop, each window followed by a reference run, after warm-up
       windows that let every request kind reach its caches and heap. *)
    let window = ref 0 in
    (* Spawns that only time the set-up, for a steadier median. *)
    let extra =
      List.init extra_spawns (fun _ ->
          let d, dt = spawn () in
          stop d;
          (dt *. Util.reference_scale (), dt))
    in
    let runs =
      List.init daemons (fun _ ->
          let d, dt = spawn () in
          let setup = (dt *. Util.reference_scale (), dt) in
          prime d;
          let passes =
            Util.passes ~warmup ~seconds:(seconds /. float_of_int daemons) (fun () ->
                incr window;
                let samples, dt =
                  closed_loop ~sock:d.sock ~tails ~seed:(Hashtbl.hash (seed, !window)) ~seconds:1.0
                in
                let ok = List.filter (fun s -> s.ok) samples in
                ( dt,
                  {
                    Util.calls = List.map (fun s -> s.rtt) samples;
                    items = List.length ok;
                    bad = mismatches expect samples;
                    failed = List.length samples - List.length ok;
                  } ))
          in
          let rss = Util.vm_hwm_mb (string_of_int d.pid) in
          stop d;
          (setup, passes, rss))
    in
    let setups = extra @ List.map (fun (s, _, _) -> s) runs in
    let r =
      Util.end_to_end
        ~setup:(Util.median (List.map fst setups), Util.median (List.map snd setups))
        ~rss:(Util.median (List.map (fun (_, _, rss) -> rss) runs))
        (List.concat_map (fun (_, p, _) -> p) runs)
    in
    {
      r with
      Util.notes =
        [
          Printf.sprintf
            "closed loop, %d connections, %d daemons in turn, %.0f s of warm-up each: %d requests in timed 1 s windows; setup is the median of %d spawns to first ping, peak RSS the median daemon's"
            connections daemons warmup r.Util.attempted (daemons + extra_spawns);
        ];
    }
  end
  else begin
    (* A recorded window, the framing floor, then the replays. *)
    let d, _ = spawn () in
    prime d;
    ignore (closed_loop ~sock:d.sock ~tails ~seed:(seed + 1) ~seconds:warmup);
    let samples, _ = closed_loop ~sock:d.sock ~tails ~seed ~seconds:(seconds /. 3.0) in
    let pings =
      let c = open_conn d.sock in
      let l = List.init 2000 (fun _ -> snd (Util.time (fun () -> rpc c "{\"id\":1,\"op\":\"ping\"}"))) in
      close_conn c;
      l
    in
    let stats = daemon_stats d.sock in
    stop d;
    let recorded = Util.take replay_requests samples in
    let replay_bad = ref 0 in
    let engine = Engine.create ~jobs:1 () in
    let replay () =
      List.map
        (fun s ->
          let t0 = Util.now () in
          let text = replay_one engine (line tails s.id s.k) in
          let gap = s.rtt -. Util.since t0 in
          if text <> Hashtbl.find expect s.k then incr replay_bad;
          (* The direct path for the same evaluation, outside the
             replayed request's time. *)
          (if s.k.op = Eval then
             let cfg, p = direct_device sources s.k in
             ignore (span "direct" (fun () -> Model.pattern_power cfg p)));
          gap)
        recorded
    in
    (* A first pass warms the engine, as the daemon's was. *)
    ignore (replay ());
    let gaps, t, overhead = Util.traced_loop ~seconds:(seconds *. 2.0 /. 3.0) replay in
    let n = List.length recorded in
    {
      Util.attempted = List.length samples;
      failed = List.length (List.filter (fun s -> not s.ok) samples);
      mismatches = mismatches expect samples + !replay_bad;
      metrics =
        [
          Util.m "serve.unattributed_us" "us" (Util.median (List.map (fun g -> g *. 1e6) gaps));
          Util.m "serve.ping_rtt_p50_us" "us" (Util.median pings *. 1e6);
          Util.m "cache.extraction_hit_share" "ratio" (hit_share stats "extraction");
          Util.m "cache.mix_hit_share" "ratio" (hit_share stats "mix");
          Util.m "engine.overhead_us_per_item" "us"
            (Trace.us_per_call t "engine.cache" -. Trace.us_per_call t "direct");
          Util.m "pool.jobs" "count" 1.0;
          Util.m "trace.overhead_pct" "%" overhead;
        ];
      notes =
        [
          Printf.sprintf "%d recorded requests, %d replayed per pass; knob-eval round trip p50 %.1f us"
            (List.length samples) n
            (Util.median (List.filter_map (fun s -> if s.k.op = Eval then Some (s.rtt *. 1e6) else None) samples));
        ];
      raw = [];
      table = Some t;
    }
  end
