(* In-memory spans recorded around the benchmark's own calls into the
   program's layers.

   A span is one call: its layer name, start and end (monotonic ns),
   the span that caused it, and the domain it ran on.  Spans are kept
   in per-domain buffers and read out once, when the traced run ends.

   Self time.  A span's self time is its duration minus the time its
   children cover.  Spans recorded on the worker domains of a parallel
   map overlap in wall-clock time, so each span carries a weight: 1 on
   the calling domain, 1/jobs under a pool of [jobs] workers.  The
   wall-clock self time of a span is

     weight * duration - sum over children (child weight * child duration)

   and these sum, over every span, to the root span's duration: the
   self-time table accounts for the traced wall time exactly, with the
   root's own self time reported as unattributed. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (* 0 for the root *)
  layer : string;
  t0 : int;
  t1 : int;
  weight : float;
  dom : int;
}

type ctx = { ctx_id : int; ctx_weight : float }

type buf = { mutable stack : ctx list; mutable spans : span list }

let enabled = ref false
let next_id = Atomic.make 1
let registry_lock = Mutex.create ()
let registry : buf list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b = { stack = []; spans = [] } in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let here () =
  match (Domain.DLS.get key).stack with
  | c :: _ -> Some c
  | [] -> None

let span ?under ?weight layer f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    let parent =
      match under with
      | Some c -> Some c
      | None -> (match b.stack with c :: _ -> Some c | [] -> None)
    in
    let weight =
      match (weight, parent) with
      | Some w, _ -> w
      | None, Some c -> c.ctx_weight
      | None, None -> 1.0
    in
    let id = Atomic.fetch_and_add next_id 1 in
    let saved = b.stack in
    b.stack <- { ctx_id = id; ctx_weight = weight } :: saved;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      b.stack <- saved;
      b.spans <-
        {
          id;
          parent = (match parent with Some c -> c.ctx_id | None -> 0);
          layer;
          t0;
          t1;
          weight;
          dom = (Domain.self () :> int);
        }
        :: b.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Run [f] with recording on and return its value and every span
   recorded meanwhile, the root span named [root] first.  Every other
   span has a parent: spans on other domains are opened [~under] a
   span of the calling domain. *)
let record root f =
  let drain () =
    Mutex.lock registry_lock;
    let spans = List.concat_map (fun b -> b.spans) !registry in
    List.iter (fun b -> b.spans <- []) !registry;
    Mutex.unlock registry_lock;
    spans
  in
  ignore (drain ());
  enabled := true;
  let v = Fun.protect ~finally:(fun () -> enabled := false) (fun () -> span root f) in
  let roots, rest = List.partition (fun s -> s.parent = 0) (drain ()) in
  (v, roots @ rest)

(* ----- accounting -------------------------------------------------- *)

type row = {
  layer : string;
  calls : int;
  self_s : float;       (* wall-clock share, see the header *)
  self_call_s : float;  (* sum over calls of duration minus same-domain children *)
  incl_s : float;       (* sum of durations *)
}

type table = { wall_s : float; rows : row list; unattributed_s : float }

let dur s = float_of_int (s.t1 - s.t0) *. 1e-9

let table spans =
  let root = List.hd spans in
  let by_parent = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add by_parent s.parent s) spans;
  let acc = Hashtbl.create 32 in
  let unattributed = ref 0.0 in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all by_parent s.id in
      let wself =
        (s.weight *. dur s)
        -. List.fold_left (fun a c -> a +. (c.weight *. dur c)) 0.0 kids
      in
      let uself =
        dur s
        -. List.fold_left
             (fun a c -> if c.dom = s.dom then a +. dur c else a)
             0.0 kids
      in
      if s.id = root.id then unattributed := wself
      else begin
        let calls, ws, us, inc =
          Option.value (Hashtbl.find_opt acc s.layer) ~default:(0, 0.0, 0.0, 0.0)
        in
        Hashtbl.replace acc s.layer (calls + 1, ws +. wself, us +. uself, inc +. dur s)
      end)
    spans;
  let rows =
    Hashtbl.fold
      (fun layer (calls, self_s, self_call_s, incl_s) l ->
        { layer; calls; self_s; self_call_s; incl_s } :: l)
      acc []
    |> List.sort (fun a b -> Float.compare b.self_s a.self_s)
  in
  { wall_s = dur root; rows; unattributed_s = !unattributed }

let find t layer = List.find_opt (fun r -> r.layer = layer) t.rows

let calls t layer = match find t layer with Some r -> r.calls | None -> 0

(* Mean self time per call in microseconds; 0 when the layer was not
   called. *)
let us_per_call t layer =
  match find t layer with
  | Some r when r.calls > 0 -> r.self_call_s /. float_of_int r.calls *. 1e6
  | _ -> 0.0

let self_s t layer = match find t layer with Some r -> r.self_call_s | None -> 0.0

let pp ppf t =
  Format.fprintf ppf "@[<v>%-22s %10s %12s %7s %12s@," "layer" "calls" "self s"
    "share" "us/call";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %10d %12.6f %6.2f%% %12.3f@," r.layer r.calls
        r.self_s
        (100.0 *. r.self_s /. t.wall_s)
        (if r.calls > 0 then r.self_call_s /. float_of_int r.calls *. 1e6 else 0.0))
    t.rows;
  Format.fprintf ppf "%-22s %10s %12.6f %6.2f%%@," "unattributed_s" "" t.unattributed_s
    (100.0 *. t.unattributed_s /. t.wall_s);
  let sum = List.fold_left (fun a r -> a +. r.self_s) t.unattributed_s t.rows in
  Format.fprintf ppf "%-22s %10s %12.6f (rows + unattributed = %.6f)@]" "traced wall_s" ""
    t.wall_s sum
