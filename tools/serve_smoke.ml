(* serve-smoke: boot the real `vdram serve` binary under deterministic
   fault injection, batter it with concurrent mixed traffic, then
   SIGTERM it and assert a clean drain.

     serve_smoke [path/to/vdram.exe]

   Asserts, in order: the daemon answers ping; a served eval is
   byte-identical to one-shot `vdram power` stdout; hostile frames
   (garbage, oversized) get structured rejections without killing the
   connection; concurrent identical corners requests coalesce
   (response-flag- and stats-counter-verified) and complete despite
   injected mix faults; the stats failure counters show injected-only
   failures; SIGTERM drains to exit 0 and unlinks the socket.  Exits 1
   on the first violated assertion. *)

module Json = Vdram_serve.Json
module Faults = Vdram_engine.Faults

let daemon_pid = ref None

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve-smoke: FAIL " ^ s);
      (match !daemon_pid with
      | Some pid -> ( try Unix.kill pid Sys.sigkill with _ -> ())
      | None -> ());
      exit 1)
    fmt

let pass fmt = Printf.ksprintf (fun s -> print_endline ("serve-smoke: " ^ s)) fmt

(* ----- tiny line-delimited JSON client ------------------------------- *)

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

let recv_frames ?(timeout = 120.0) fd n =
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
      | Error e -> fail "unparseable frame %S: %s" line e)
    !frames

let one = function
  | [ f ] -> f
  | l -> fail "expected exactly one frame, got %d" (List.length l)

let jget frame k =
  match Json.mem k frame with
  | Some v -> v
  | None -> fail "frame %s lacks field %S" (Json.to_string frame) k

let jstr frame k =
  match Json.str (jget frame k) with
  | Some s -> s
  | None -> fail "field %S is not a string" k

let jint frame k =
  match Json.int_ (jget frame k) with
  | Some n -> n
  | None -> fail "field %S is not an int" k

let jbool frame k =
  match Json.bool_ (jget frame k) with
  | Some b -> b
  | None -> fail "field %S is not a bool" k

(* ----- the smoke run -------------------------------------------------- *)

let samples = 400

(* Every serve request runs under a fresh supervisor, so an eval item
   is always (batch 0, index 0): pick a seed whose plan leaves that
   item clean (evals stay deterministic for the bit-identity check)
   but faults at least one of the corners batch's items. *)
let pick_seed () =
  let plan seed =
    { Faults.seed; rate = 0.02; action = Some (Faults.Raise Faults.Mix) }
  in
  let ok s =
    (not (Faults.faulted (plan s) ~batch:0 ~index:0))
    && List.exists
         (fun i -> Faults.faulted (plan s) ~batch:0 ~index:i)
         (List.init samples Fun.id)
  in
  let rec go s = if s > 255 then fail "no usable seed" else if ok s then s else go (s + 1) in
  go 7

let base_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not (String.length kv >= 13 && String.sub kv 0 13 = "VDRAM_FAULTS="))

let read_process_stdout argv env =
  let out_read, out_write = Unix.pipe () in
  let pid =
    Unix.create_process_env argv.(0) argv env Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let ic = Unix.in_channel_of_descr out_read in
  let b = Buffer.create 16384 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "%s exited non-zero" (String.concat " " (Array.to_list argv)));
  Buffer.contents b

let () =
  let exe =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else "_build/default/bin/vdram.exe"
  in
  if not (Sys.file_exists exe) then fail "no vdram binary at %s" exe;
  let seed = pick_seed () in
  let faults = Printf.sprintf "seed=%d,rate=0.02,raise=mix" seed in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vdram-smoke-%d.sock" (Unix.getpid ()))
  in
  let env = Array.of_list (("VDRAM_FAULTS=" ^ faults) :: base_env ()) in

  (* Boot the daemon with the injected plan. *)
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; sock; "--max-inflight"; "16" |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  daemon_pid := Some pid;
  pass "daemon pid %d, plan %s" pid faults;

  (* Wait for the listener, then ping. *)
  let fd =
    let deadline = Unix.gettimeofday () +. 60.0 in
    let rec go () =
      match connect sock with
      | fd -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.1;
        go ()
      | exception e -> fail "cannot reach daemon: %s" (Printexc.to_string e)
    in
    go ()
  in
  send_line fd {|{"id":"p","op":"ping"}|};
  let ping = one (recv_frames fd 1) in
  if jstr ping "status" <> "ok" then fail "ping not ok";
  pass "ping ok";

  (* Bit-identity: served eval text equals one-shot CLI stdout.  The
     CLI run keeps the same environment — faults only fire under
     supervision, which `vdram power` does not use. *)
  let cli = read_process_stdout [| exe; "power" |] env in
  send_line fd {|{"id":"e","op":"eval"}|};
  let ev = one (recv_frames fd 1) in
  if jstr ev "status" <> "ok" then
    fail "eval failed: %s" (Json.to_string ev);
  if not (String.equal (jstr ev "text") cli) then
    fail "served eval text differs from `vdram power` stdout";
  pass "eval is bit-identical to the one-shot CLI";

  (* Hostile frames: structured rejection, surviving connection. *)
  send_line fd "certainly not json";
  let g = one (recv_frames fd 1) in
  if jstr g "class" <> "bad_frame" then fail "garbage not flagged bad_frame";
  send_raw fd (String.make 1_200_000 'x');
  let o = one (recv_frames fd 1) in
  if jstr o "class" <> "bad_frame" then fail "oversized not flagged bad_frame";
  send_raw fd "resync tail\n";
  send_line fd {|{"id":"p2","op":"ping"}|};
  if jstr (one (recv_frames fd 1)) "status" <> "ok" then
    fail "connection did not survive hostile frames";
  pass "hostile frames rejected, connection survived";

  (* Concurrent identical corners under injection: all complete with
     partial results, and the flights coalesce. *)
  let n = 8 in
  let req =
    Printf.sprintf {|{"id":"c","op":"corners","samples":%d}|} samples
  in
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let cfd = connect sock in
            send_line cfd req;
            (match recv_frames cfd 1 with
            | [ f ] -> results.(i) <- Some f
            | _ -> ());
            Unix.close cfd)
          ())
  in
  List.iter Thread.join threads;
  let frames =
    Array.to_list results
    |> List.map (function
         | Some f -> f
         | None -> fail "a corners client got no terminal frame")
  in
  List.iter
    (fun f ->
      if jstr f "status" <> "ok" then
        fail "corners under injection not ok: %s" (Json.to_string f))
    frames;
  let failures_seen = jint (List.hd frames) "failures" in
  if failures_seen <= 0 then fail "expected injected corners failures";
  let coalesced = List.length (List.filter (fun f -> jbool f "coalesced") frames) in
  if coalesced <= 0 then fail "no corners request was coalesced";
  pass "%d concurrent corners: %d coalesced, %d injected failures tolerated"
    n coalesced failures_seen;

  (* Stats: injected-only failures, coalescing counted. *)
  send_line fd {|{"id":"s","op":"stats"}|};
  let st = jget (one (recv_frames fd 1)) "stats" in
  let f = jget st "failures" in
  let items = jint f "items" and injected = jint f "injected" in
  if items <= 0 then fail "stats shows no failures";
  if items <> injected then
    fail "non-injected failures leaked: %d items, %d injected" items injected;
  let r = jget st "requests" in
  if jint r "coalesced_shared" <= 0 then fail "stats shows no coalescing";
  pass "stats: %d failures, all injected; coalesced_shared=%d" items
    (jint r "coalesced_shared");
  Unix.close fd;

  (* SIGTERM: graceful drain, exit 0, socket unlinked. *)
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> fail "daemon exited %d after SIGTERM" c
  | _, Unix.WSIGNALED s -> fail "daemon killed by signal %d" s
  | _, Unix.WSTOPPED _ -> fail "daemon stopped");
  daemon_pid := None;
  if Sys.file_exists sock then fail "socket not unlinked after drain";
  pass "SIGTERM: clean drain, exit 0, socket unlinked";
  pass "all checks passed"
