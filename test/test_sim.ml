(* Simulator: timing, bank FSM, controller, energy integration. *)

open Vdram_sim
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec

let cfg () = Lazy.force Helpers.ddr3_1g

let timing () = Timing.of_config (cfg ())

let test_timing () =
  let t = timing () in
  Helpers.check_true "tRC = tRAS + tRP"
    (t.Timing.trc <= t.Timing.tras + t.Timing.trp + 1);
  Helpers.check_true "tRRD below tFAW" (t.Timing.trrd * 4 <= t.Timing.tfaw + 3);
  Helpers.check_true "refresh interval >> refresh time"
    (t.Timing.trefi > 5 * t.Timing.trfc);
  Helpers.check_positive "tCK" t.Timing.tck

let test_bank_fsm () =
  let t = timing () in
  let b = Bank.create t in
  Alcotest.(check bool) "starts idle" true (Bank.state b = Bank.Idle);
  Bank.activate b ~at:0 ~row:7;
  Alcotest.(check bool) "row open" true (Bank.state b = Bank.Active 7);
  Alcotest.check_raises "double activate"
    (Bank.Timing_violation "activate at 1: bank not idle") (fun () ->
      Bank.activate b ~at:1 ~row:8);
  (* Column before tRCD is rejected. *)
  (try
     Bank.column b ~at:1 ~write:false;
     Alcotest.fail "column before tRCD accepted"
   with Bank.Timing_violation _ -> ());
  Bank.column b ~at:t.Timing.trcd ~write:false;
  (* Precharge respects tRAS. *)
  (try
     Bank.precharge b ~at:(t.Timing.trcd + 1);
     Alcotest.fail "precharge before tRAS accepted"
   with Bank.Timing_violation _ -> ());
  Bank.precharge b ~at:(Bank.earliest_precharge b);
  Alcotest.(check bool) "idle after precharge" true (Bank.state b = Bank.Idle);
  (* Activate again only after tRC. *)
  (try
     Bank.activate b ~at:(t.Timing.tras + 1) ~row:3;
     Alcotest.fail "activate before tRP accepted"
   with Bank.Timing_violation _ -> ());
  Bank.activate b ~at:(Bank.earliest_activate b) ~row:3

let test_write_recovery () =
  let t = timing () in
  let b = Bank.create t in
  Bank.activate b ~at:0 ~row:1;
  Bank.column b ~at:t.Timing.trcd ~write:true;
  let after_read = Bank.create t in
  Bank.activate after_read ~at:0 ~row:1;
  Bank.column after_read ~at:t.Timing.trcd ~write:false;
  Helpers.check_true "write pushes precharge further than read"
    (Bank.earliest_precharge b > Bank.earliest_precharge after_read)

let small_trace ?(write_fraction = 0.3) ?(gap = 8) n seed =
  let c = cfg () in
  Trace.uniform ~rng:(Trace.rng seed) ~requests:n ~arrival_gap:gap
    ~banks:c.Config.spec.Spec.banks ~rows:512 ~columns:64 ~write_fraction

let test_controller_basics () =
  let c = cfg () in
  let stats = Controller.run c (small_trace 500 11) in
  Alcotest.(check int) "all requests served" 500 stats.Stats.requests;
  Alcotest.(check int) "reads + writes = requests" 500
    (stats.Stats.reads + stats.Stats.writes);
  Alcotest.(check int) "hits + misses = requests" 500
    (stats.Stats.row_hits + stats.Stats.row_misses);
  Helpers.check_true "every miss needs an activate"
    (stats.Stats.activates = stats.Stats.row_misses);
  Helpers.check_true "cycles advance" (stats.Stats.cycles > 500);
  Helpers.check_true "latency positive" (Stats.average_latency stats > 0.0)

let test_page_policies () =
  let c = cfg () in
  let trace () =
    Trace.streaming ~requests:2000 ~arrival_gap:4
      ~banks:c.Config.spec.Spec.banks ~rows:512 ~columns:64
      ~write_fraction:0.0
  in
  let open_stats = Controller.run ~page_policy:Controller.Open_page c (trace ())
  and closed_stats =
    Controller.run ~page_policy:Controller.Closed_page c (trace ())
  in
  Helpers.check_true "open page exploits streaming locality"
    (Stats.row_hit_rate open_stats > 0.9);
  Helpers.check_true "closed page activates per request"
    (closed_stats.Stats.activates > open_stats.Stats.activates * 10);
  Helpers.check_true "closed page burns more energy on streams"
    ((Energy_model.of_stats c closed_stats).Energy_model.energy
    > (Energy_model.of_stats c open_stats).Energy_model.energy)

let test_row_hits_uniform_vs_stream () =
  let c = cfg () in
  let uniform = Controller.run c (small_trace 2000 5) in
  let stream =
    Controller.run c
      (Trace.streaming ~requests:2000 ~arrival_gap:8
         ~banks:c.Config.spec.Spec.banks ~rows:512 ~columns:64
         ~write_fraction:0.3)
  in
  Helpers.check_true "streaming hits more rows"
    (Stats.row_hit_rate stream > Stats.row_hit_rate uniform +. 0.3)

let test_refresh () =
  let c = cfg () in
  (* A long sparse trace crosses several tREFI periods. *)
  let trace = small_trace ~gap:2000 2000 9 in
  let stats = Controller.run c trace in
  Helpers.check_true "refreshes issued" (stats.Stats.refreshes > 10);
  let t = timing () in
  let expected = stats.Stats.cycles / t.Timing.trefi in
  Helpers.check_true "roughly one refresh per tREFI"
    (abs (stats.Stats.refreshes - expected) <= expected / 2 + 2)

let test_power_down () =
  let c = cfg () in
  let base = small_trace ~gap:8 2000 13 in
  let gappy = Trace.idle_gaps ~rng:(Trace.rng 1) base ~burst:50 ~gap:5000 in
  let without =
    Sim.simulate ~power_down:Controller.No_power_down c gappy
  and with_pd =
    Sim.simulate ~power_down:(Controller.Precharge_power_down 100) c gappy
  in
  Helpers.check_true "power-down cycles accumulate"
    (with_pd.Sim.stats.Stats.powerdown_cycles > 0);
  Helpers.check_true "power-down saves average power"
    (with_pd.Sim.energy.Energy_model.average_power
    < without.Sim.energy.Energy_model.average_power);
  (* On a dense trace the policy never engages. *)
  let dense = Sim.simulate ~power_down:(Controller.Precharge_power_down 100) c
      (small_trace ~gap:4 2000 13)
  in
  Alcotest.(check int) "no power-down when busy" 0
    dense.Sim.stats.Stats.powerdown_cycles

let test_self_refresh () =
  let c = cfg () in
  let base = small_trace ~gap:8 1500 31 in
  let very_gappy =
    Trace.idle_gaps ~rng:(Trace.rng 2) base ~burst:100 ~gap:100000
  in
  let pd =
    Sim.simulate ~power_down:(Controller.Precharge_power_down 100) c
      very_gappy
  and sr =
    Sim.simulate
      ~power_down:(Controller.Self_refresh_power_down (100, 2000))
      c very_gappy
  in
  Helpers.check_true "self-refresh cycles accumulate"
    (sr.Sim.stats.Stats.selfrefresh_cycles > 0);
  Helpers.check_true "self-refresh beats plain power-down on long gaps"
    (sr.Sim.energy.Energy_model.average_power
    <= pd.Sim.energy.Energy_model.average_power *. 1.02);
  (* While asleep the external refresh engine is off. *)
  Helpers.check_true "fewer external refreshes in self-refresh"
    (sr.Sim.stats.Stats.refreshes <= pd.Sim.stats.Stats.refreshes)

let test_trace_io () =
  let t = small_trace 200 77 in
  let path = Filename.temp_file "vdram_trace" ".txt" in
  Trace.save path t;
  (match Trace.load path with
   | Ok t' ->
     Alcotest.(check int) "same length" (List.length t) (List.length t');
     List.iter2
       (fun (a : Trace.request) (b : Trace.request) ->
         Helpers.check_true "request preserved"
           (a.Trace.arrival = b.Trace.arrival
           && a.Trace.bank = b.Trace.bank
           && a.Trace.row = b.Trace.row
           && a.Trace.column = b.Trace.column
           && a.Trace.is_write = b.Trace.is_write))
       t t'
   | Error e -> Alcotest.fail e);
  Sys.remove path;
  (match Trace.load "/nonexistent/vdram/trace" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing file accepted")

let test_energy_report () =
  let c = cfg () in
  let run = Sim.simulate c (small_trace 1000 21) in
  let r = run.Sim.energy in
  Helpers.check_positive "energy" r.Energy_model.energy;
  let sum = List.fold_left (fun a (_, e) -> a +. e) 0.0 r.Energy_model.breakdown in
  Helpers.close ~eps:1e-9 "breakdown sums to energy" r.Energy_model.energy sum;
  Helpers.check_positive "energy per bit" r.Energy_model.energy_per_bit;
  Helpers.check_true "average power plausible for DDR3 (0.01..2 W)"
    (r.Energy_model.average_power > 0.01 && r.Energy_model.average_power < 2.0)

let test_address_mapping () =
  let banks = 8 and rows = 512 and columns = 64 in
  let b, r, c = Trace.address_of ~banks ~rows ~columns 0L in
  Alcotest.(check (triple int int int)) "zero address" (0, 0, 0) (b, r, c);
  let b, _, _ = Trace.address_of ~banks ~rows ~columns 5L in
  Alcotest.(check int) "bank interleaved" 5 b;
  let all_in_range =
    List.init 1000 (fun i ->
        let b, r, c =
          Trace.address_of ~banks ~rows ~columns (Int64.of_int (i * 77))
        in
        b >= 0 && b < banks && r >= 0 && r < rows && c >= 0 && c < columns)
  in
  Helpers.check_true "mapping in range" (List.for_all Fun.id all_in_range)

let test_window_effect () =
  let c = cfg () in
  (* Requests that alternate between two rows of one bank: FIFO keeps
     thrashing; a reorder window can batch the hits. *)
  let trace =
    List.init 400 (fun i ->
        {
          Trace.arrival = i * 2;
          bank = 0;
          row = (if i mod 2 = 0 then 1 else 2);
          column = i mod 32;
          is_write = false;
        })
  in
  let fifo = Controller.run ~window:1 c trace in
  let frfcfs = Controller.run ~window:16 c trace in
  Helpers.check_true "reordering harvests row hits"
    (Stats.row_hit_rate frfcfs > Stats.row_hit_rate fifo);
  Helpers.check_true "reordering reduces activates"
    (frfcfs.Stats.activates < fifo.Stats.activates)

let test_data_bus_occupancy () =
  let c = cfg () in
  let t = timing () in
  (* Gapless single-bank row-hit stream: total cycles bounded below by
     requests x tCCD (the data bus). *)
  let trace =
    List.init 500 (fun i ->
        { Trace.arrival = 0; bank = 0; row = 0; column = i mod 64;
          is_write = false })
  in
  let stats = Controller.run c trace in
  Helpers.check_true "data bus bounds throughput"
    (stats.Stats.cycles >= 500 * t.Timing.tccd)

let test_hotspot_between () =
  let c = cfg () in
  let mk kind =
    match kind with
    | `U -> small_trace 1500 3
    | `H ->
      Trace.hotspot ~rng:(Trace.rng 3) ~requests:1500 ~arrival_gap:8
        ~banks:c.Config.spec.Spec.banks ~rows:512 ~columns:64
        ~write_fraction:0.3 ~hot_rows:4 ~hot_fraction:0.9
    | `S ->
      Trace.streaming ~requests:1500 ~arrival_gap:8
        ~banks:c.Config.spec.Spec.banks ~rows:512 ~columns:64
        ~write_fraction:0.3
  in
  let hit k = Stats.row_hit_rate (Controller.run c (mk k)) in
  let u = hit `U and h = hit `H and st = hit `S in
  Helpers.check_true
    (Printf.sprintf "uniform (%.2f) < hotspot (%.2f) < stream (%.2f)" u h st)
    (u < h && h < st)

let test_adaptive_page () =
  let c = cfg () in
  (* Bursty locality: runs of hits to one row, then a long pause and a
     different row.  Adaptive should match open-page hits while
     avoiding the conflict precharge on re-entry. *)
  let trace =
    List.concat
      (List.init 50 (fun run ->
           List.init 10 (fun i ->
               {
                 Trace.arrival = (run * 3000) + (i * 6);
                 bank = 0;
                 row = run;
                 column = i;
                 is_write = false;
               })))
  in
  let openp = Controller.run ~page_policy:Controller.Open_page c trace in
  let adaptive =
    Controller.run ~page_policy:(Controller.Adaptive_page 200) c trace
  in
  let closed = Controller.run ~page_policy:Controller.Closed_page c trace in
  Helpers.check_true "adaptive keeps the in-run hits"
    (Stats.row_hit_rate adaptive > 0.8);
  (* The stale precharge happens during the pause instead of on the
     next request's critical path: latency improves over open page. *)
  Helpers.check_true "adaptive hides the conflict precharge"
    (Stats.average_latency adaptive < Stats.average_latency openp);
  Helpers.check_true "and beats closed page on hits"
    (Stats.row_hit_rate adaptive > Stats.row_hit_rate closed +. 0.5)

let test_bank_groups () =
  (* Pre-DDR4 devices have one group; DDR4/5 have banks/4. *)
  let t3 = Timing.of_config (Lazy.force Helpers.ddr3_1g) in
  Alcotest.(check int) "DDR3: one group" 1 t3.Timing.bank_groups;
  Alcotest.(check int) "DDR3: tCCD_L = tCCD" t3.Timing.tccd t3.Timing.tccd_l;
  let ddr5 = Lazy.force Helpers.ddr5_16g in
  let t5 = Timing.of_config ddr5 in
  Alcotest.(check int) "DDR5: 8 groups" 8 t5.Timing.bank_groups;
  Helpers.check_true "DDR5: tCCD_L longer" (t5.Timing.tccd_l > t5.Timing.tccd);
  (* Same-group streaming is slower than group-interleaved. *)
  let trace stride =
    List.init 600 (fun i ->
        { Trace.arrival = 0; bank = i * stride mod 32; row = 0;
          column = i mod 64; is_write = false })
  in
  let same_group = Controller.run ddr5 (trace 0)
  and interleaved = Controller.run ddr5 (trace 5) in
  Helpers.check_true "group interleaving is faster"
    (interleaved.Stats.cycles < same_group.Stats.cycles)

let test_energy_grows_with_work () =
  let c = cfg () in
  let e n =
    (Energy_model.of_stats c (Controller.run c (small_trace n 5)))
      .Energy_model.energy
  in
  Helpers.check_true "more requests, more energy" (e 2000 > e 500)

let controller_never_violates =
  QCheck.Test.make ~name:"scheduler respects all timing constraints"
    ~count:30
    QCheck.(
      triple (int_range 1 500) (int_range 1 40) (int_range 0 10000))
    (fun (n, gap, seed) ->
      let c = cfg () in
      let trace =
        Trace.uniform ~rng:(Trace.rng (seed + 1)) ~requests:n
          ~arrival_gap:gap ~banks:c.Config.spec.Spec.banks ~rows:128
          ~columns:32 ~write_fraction:0.4
      in
      (* Bank.Timing_violation escaping = failure. *)
      let stats = Controller.run c trace in
      stats.Stats.requests = n)

let closed_page_never_violates =
  QCheck.Test.make ~name:"closed-page scheduler respects timing" ~count:20
    QCheck.(pair (int_range 1 300) (int_range 0 10000))
    (fun (n, seed) ->
      let c = cfg () in
      let trace =
        Trace.uniform ~rng:(Trace.rng (seed + 7)) ~requests:n ~arrival_gap:2
          ~banks:c.Config.spec.Spec.banks ~rows:128 ~columns:32
          ~write_fraction:0.5
      in
      let stats =
        Controller.run ~page_policy:Controller.Closed_page
          ~power_down:(Controller.Precharge_power_down 50) c trace
      in
      stats.Stats.requests = n
      && stats.Stats.precharges >= stats.Stats.activates)

let suite =
  [
    Alcotest.test_case "timing derivation" `Quick test_timing;
    Alcotest.test_case "bank state machine" `Quick test_bank_fsm;
    Alcotest.test_case "write recovery" `Quick test_write_recovery;
    Alcotest.test_case "controller basics" `Quick test_controller_basics;
    Alcotest.test_case "page policies" `Quick test_page_policies;
    Alcotest.test_case "locality and row hits" `Quick
      test_row_hits_uniform_vs_stream;
    Alcotest.test_case "refresh scheduling" `Quick test_refresh;
    Alcotest.test_case "power-down policy (Hur et al.)" `Quick
      test_power_down;
    Alcotest.test_case "self-refresh policy" `Quick test_self_refresh;
    Alcotest.test_case "trace file round trip" `Quick test_trace_io;
    Alcotest.test_case "energy integration" `Quick test_energy_report;
    Alcotest.test_case "address mapping" `Quick test_address_mapping;
    Alcotest.test_case "reorder window effect" `Quick test_window_effect;
    Alcotest.test_case "data bus occupancy" `Quick test_data_bus_occupancy;
    Alcotest.test_case "hotspot locality between" `Quick test_hotspot_between;
    Alcotest.test_case "energy grows with work" `Quick
      test_energy_grows_with_work;
    Alcotest.test_case "bank groups (DDR4/5)" `Quick test_bank_groups;
    Alcotest.test_case "adaptive page policy" `Quick test_adaptive_page;
    Helpers.qcheck controller_never_violates;
    Helpers.qcheck closed_page_never_violates;
  ]
