(* Tests for the microarchitecture substrate: caches, branch predictors,
   RAS, memory-dependence predictor, and end-to-end engine invariants. *)

module Params = Ooo_common.Params
module Cache = Ooo_common.Cache
module BP = Ooo_common.Branch_pred
module Engine = Ooo_common.Engine

(* ---------- caches ---------- *)

let test_cache_basics () =
  let c = Cache.create { Params.size_bytes = 1024; ways = 2; line_bytes = 64;
                         hit_latency = 4 } in
  (* 1024/64 = 16 lines, 2 ways -> 8 sets *)
  Alcotest.(check bool) "cold miss" false (Cache.touch c 0x1000);
  Alcotest.(check bool) "hit after fill" true (Cache.touch c 0x1000);
  Alcotest.(check bool) "same line hit" true (Cache.touch c 0x103C);
  Alcotest.(check bool) "different line miss" false (Cache.touch c 0x2000);
  Alcotest.(check int) "miss count" 2 c.Cache.misses;
  Alcotest.(check int) "access count" 4 c.Cache.accesses

let test_cache_lru () =
  let c = Cache.create { Params.size_bytes = 1024; ways = 2; line_bytes = 64;
                         hit_latency = 4 } in
  (* three lines mapping to the same set (8 sets, 64B lines: stride 512) *)
  let a = 0x0000 and b = 0x0200 and d = 0x0400 in
  ignore (Cache.touch c a);
  ignore (Cache.touch c b);
  ignore (Cache.touch c a); (* a most recent; b is LRU *)
  ignore (Cache.touch c d); (* evicts b *)
  Alcotest.(check bool) "a survives" true (Cache.touch c a);
  Alcotest.(check bool) "b evicted" false (Cache.touch c b)

let test_cache_fill_is_silent () =
  let c = Cache.create Params.l1_32k in
  Cache.fill c 0x4000;
  Alcotest.(check int) "fill does not count accesses" 0 c.Cache.accesses;
  Alcotest.(check bool) "fill installs the line" true (Cache.touch c 0x4000)

let test_hierarchy_latencies () =
  let h = Cache.create_hierarchy Params.ss_4way in
  let lat1 = Cache.data_access h 0x10000 in
  (* first touch: L1 miss, L2 miss, L3 miss, memory *)
  Alcotest.(check int) "cold access latency" (4 + 12 + 42 + 200) lat1;
  let lat2 = Cache.data_access h 0x10000 in
  Alcotest.(check int) "L1 hit latency" 4 lat2;
  (* the stream prefetcher should have installed the next lines *)
  let lat3 = Cache.data_access h 0x10040 in
  Alcotest.(check int) "prefetched next line" 4 lat3

let test_hierarchy_no_l3 () =
  let h = Cache.create_hierarchy Params.ss_2way in
  let lat = Cache.data_access h 0x20000 in
  Alcotest.(check int) "cold latency without L3" (4 + 12 + 200) lat

(* ---------- branch predictors ---------- *)

let test_gshare_learns_loop () =
  let p = BP.gshare () in
  let pc = 0x1000 in
  (* taken 7 times, not-taken once, repeatedly (a loop with 8 iterations) *)
  for _ = 1 to 50 do
    for i = 1 to 8 do
      ignore (p.BP.predict pc);
      p.BP.update pc (i < 8)
    done
  done;
  (* after training, the inner predictions should be mostly right *)
  let correct = ref 0 in
  for i = 1 to 8 do
    if p.BP.predict pc = (i < 8) then incr correct;
    p.BP.update pc (i < 8)
  done;
  Alcotest.(check bool) "gshare learned the loop" true (!correct >= 6)

let test_gshare_biased_branch () =
  let p = BP.gshare () in
  for _ = 1 to 20 do
    p.BP.update 0x2000 true
  done;
  Alcotest.(check bool) "always-taken learned" true (p.BP.predict 0x2000)

let test_tage_learns_pattern () =
  let p = BP.tage () in
  (* a pattern gshare-with-long-history handles: period-3 sequence *)
  let pattern = [| true; true; false |] in
  let i = ref 0 in
  for _ = 1 to 300 do
    ignore (p.BP.predict 0x3000);
    p.BP.update 0x3000 pattern.(!i mod 3);
    incr i
  done;
  let correct = ref 0 in
  for _ = 1 to 30 do
    if p.BP.predict 0x3000 = pattern.(!i mod 3) then incr correct;
    p.BP.update 0x3000 pattern.(!i mod 3);
    incr i
  done;
  Alcotest.(check bool)
    (Printf.sprintf "tage learned period-3 (%d/30)" !correct)
    true (!correct >= 25)

let test_ras () =
  let r = BP.Ras.create () in
  BP.Ras.push r 0x100;
  BP.Ras.push r 0x200;
  Alcotest.(check (option int)) "lifo pop" (Some 0x200) (BP.Ras.pop r);
  let saved = BP.Ras.save r in
  BP.Ras.push r 0x300;
  ignore (BP.Ras.pop r);
  ignore (BP.Ras.pop r);
  BP.Ras.restore r saved;
  Alcotest.(check (option int)) "restored top" (Some 0x100) (BP.Ras.pop r);
  Alcotest.(check (option int)) "empty pop" None (BP.Ras.pop r)

let test_memdep () =
  let m = Ooo_common.Memdep.create () in
  Alcotest.(check bool) "initially no conflict" false
    (Ooo_common.Memdep.predict_conflict m 0x4000);
  Ooo_common.Memdep.train_violation m 0x4000;
  Alcotest.(check bool) "conflict after violation" true
    (Ooo_common.Memdep.predict_conflict m 0x4000);
  Alcotest.(check int) "violation count" 1 m.Ooo_common.Memdep.violations

(* ---------- engine invariants ---------- *)

let compile_straight src =
  let p = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize p.Ssa_ir.Ir.funcs;
  let config =
    { Straight_cc.Codegen.max_dist = 31; level = Straight_cc.Codegen.Re_plus }
  in
  Straight_cc.Codegen.compile_to_image ~config p

let compile_riscv src =
  let p = Minic.Lower.compile src in
  List.iter Ssa_ir.Passes.optimize p.Ssa_ir.Ir.funcs;
  Riscv_cc.Codegen.compile_to_image p

let sim_source = {|
int data[32];
int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  return s;
}
int main() {
  for (int i = 0; i < 32; i++) data[i] = i * 3 - 7;
  int total = 0;
  for (int round = 0; round < 20; round++) {
    total += sum(data, 32);
    if (total > 100000) total = 0;
    data[round & 31] = total & 255;
  }
  putint(total);
  return 0;
}
|}

let test_engine_straight_runs () =
  let image = compile_straight sim_source in
  let r = Ooo_straight.Pipeline.run Params.straight_4way image in
  let s = r.Ooo_straight.Pipeline.stats in
  Alcotest.(check bool) "ipc positive" true (s.Engine.ipc > 0.0);
  Alcotest.(check bool) "ipc below issue width" true
    (s.Engine.ipc <= float_of_int Params.straight_4way.Params.issue_width);
  Alcotest.(check bool) "committed everything" true (s.Engine.committed > 0);
  (* functional output must be produced by the ISS leg unchanged *)
  Alcotest.(check bool) "output nonempty" true
    (String.length r.Ooo_straight.Pipeline.output > 0)

let test_engine_riscv_runs () =
  let image = compile_riscv sim_source in
  let r = Ooo_riscv.Pipeline.run Params.ss_4way image in
  let s = r.Ooo_riscv.Pipeline.stats in
  Alcotest.(check bool) "ipc positive" true (s.Engine.ipc > 0.0);
  Alcotest.(check bool) "ipc below issue width" true
    (s.Engine.ipc <= float_of_int Params.ss_4way.Params.issue_width)

let test_engine_commit_count_matches_trace () =
  (* every correct-path instruction commits exactly once *)
  let image = compile_straight sim_source in
  let iss =
    Iss.Straight_iss.run
      ~config:{ Iss.Straight_iss.collect_trace = true; collect_dist = false;
                max_insns = 10_000_000 }
      image
  in
  let r = Ooo_straight.Pipeline.run Params.straight_2way image in
  Alcotest.(check int) "committed = trace length" iss.Iss.Trace.retired
    r.Ooo_straight.Pipeline.stats.Engine.committed

let test_engine_determinism () =
  let image = compile_straight sim_source in
  let r1 = Ooo_straight.Pipeline.run Params.straight_4way image in
  let r2 = Ooo_straight.Pipeline.run Params.straight_4way image in
  Alcotest.(check int) "same cycles" r1.Ooo_straight.Pipeline.stats.Engine.cycles
    r2.Ooo_straight.Pipeline.stats.Engine.cycles

let test_ideal_recovery_not_slower () =
  let image = compile_riscv sim_source in
  let normal = Ooo_riscv.Pipeline.run Params.ss_2way image in
  let ideal =
    Ooo_riscv.Pipeline.run (Params.with_ideal_recovery Params.ss_2way) image
  in
  Alcotest.(check bool) "ideal recovery is not slower" true
    (ideal.Ooo_riscv.Pipeline.stats.Engine.cycles
     <= normal.Ooo_riscv.Pipeline.stats.Engine.cycles)

let test_deeper_frontend_not_faster () =
  let image = compile_straight sim_source in
  let shallow = Ooo_straight.Pipeline.run Params.straight_4way image in
  let deep =
    Ooo_straight.Pipeline.run
      { Params.straight_4way with Params.frontend_depth = 12; name = "deep" }
      image
  in
  Alcotest.(check bool) "12-deep front end is not faster" true
    (deep.Ooo_straight.Pipeline.stats.Engine.cycles
     >= shallow.Ooo_straight.Pipeline.stats.Engine.cycles)

let test_wider_machine_not_slower () =
  let image = compile_straight sim_source in
  let narrow = Ooo_straight.Pipeline.run Params.straight_2way image in
  let wide = Ooo_straight.Pipeline.run Params.straight_4way image in
  Alcotest.(check bool) "4-way is not slower than 2-way" true
    (wide.Ooo_straight.Pipeline.stats.Engine.cycles
     <= narrow.Ooo_straight.Pipeline.stats.Engine.cycles)

let test_mix_totals () =
  let image = compile_straight sim_source in
  let r = Ooo_straight.Pipeline.run Params.straight_2way image in
  let s = r.Ooo_straight.Pipeline.stats in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.Engine.mix in
  Alcotest.(check int) "mix sums to committed" s.Engine.committed total

let test_slow_memory_slower () =
  let image = compile_straight sim_source in
  let fast = Ooo_straight.Pipeline.run Params.straight_2way image in
  let slow =
    Ooo_straight.Pipeline.run
      { Params.straight_2way with Params.memory_latency = 800; name = "slowmem" }
      image
  in
  Alcotest.(check bool) "4x memory latency is not faster" true
    (slow.Ooo_straight.Pipeline.stats.Engine.cycles
     >= fast.Ooo_straight.Pipeline.stats.Engine.cycles)

(* the checkpointed-RMT variant (Section II-A) removes the walk but adds
   checkpoint-occupancy stalls: it must land between SS and ideal *)
let test_checkpointed_rmt_between () =
  let image = compile_riscv sim_source in
  let ss = Ooo_riscv.Pipeline.run Params.ss_4way image in
  let ck =
    Ooo_riscv.Pipeline.run (Params.with_checkpoints ~n:8 Params.ss_4way) image
  in
  let ideal =
    Ooo_riscv.Pipeline.run (Params.with_ideal_recovery Params.ss_4way) image
  in
  Alcotest.(check bool) "checkpoints not slower than walk" true
    (ck.Ooo_riscv.Pipeline.stats.Engine.cycles
     <= ss.Ooo_riscv.Pipeline.stats.Engine.cycles);
  Alcotest.(check bool) "checkpoints not faster than ideal" true
    (ck.Ooo_riscv.Pipeline.stats.Engine.cycles
     >= ideal.Ooo_riscv.Pipeline.stats.Engine.cycles);
  Alcotest.(check int) "no walk with checkpoints" 0
    ck.Ooo_riscv.Pipeline.stats.Engine.walk_stall_cycles

(* starved checkpoints must actually stall *)
let test_checkpoint_starvation () =
  let image = compile_riscv sim_source in
  let starved =
    Ooo_riscv.Pipeline.run (Params.with_checkpoints ~n:1 Params.ss_4way) image
  in
  Alcotest.(check bool) "1 checkpoint causes stalls" true
    (starved.Ooo_riscv.Pipeline.stats.Engine.checkpoint_stall_slots > 0)

(* Section III-B: the SPADD dispatch restriction is negligible *)
let test_spadd_limit_negligible () =
  let image = compile_straight sim_source in
  let r = Ooo_straight.Pipeline.run Params.straight_4way image in
  let s = r.Ooo_straight.Pipeline.stats in
  Alcotest.(check bool)
    (Printf.sprintf "spadd stalls %d < 2%% of cycles %d"
       s.Engine.spadd_stall_slots s.Engine.cycles)
    true
    (float_of_int s.Engine.spadd_stall_slots
     < 0.02 *. float_of_int s.Engine.cycles)

(* the lockstep golden-model checker is on by default in Pipeline.run;
   every built-in workload must retire through it with zero violations
   on both a STRAIGHT and a superscalar model *)
let test_checker_on_builtin_workloads () =
  let workloads =
    [ Workloads.dhrystone ~iterations:5 ();
      Workloads.coremark ~iterations:1 ();
      Workloads.fib ();
      Workloads.iota ();
      Workloads.sort ();
      Workloads.quicksort ();
      Workloads.pointer_chase ~nodes:256 ~hops:200 () ]
  in
  List.iter
    (fun w ->
       List.iter
         (fun (model, target) ->
            let r =
              Straight_core.Experiment.run ~model ~target w
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s on %s: checker ran" w.Workloads.name
                 model.Params.name)
              true
              (r.Straight_core.Experiment.stats.Engine.commits_checked
               >= r.Straight_core.Experiment.stats.Engine.committed))
         [ (Params.straight_2way, Straight_core.Experiment.Straight_re);
           (Params.ss_2way, Straight_core.Experiment.Riscv) ])
    workloads

(* pointer chasing defeats the next-line prefetcher: many L1D misses *)
let test_pointer_chase_misses () =
  let w = Workloads.pointer_chase ~nodes:16384 ~hops:3000 () in
  let p = Minic.Lower.compile w.Workloads.source in
  List.iter Ssa_ir.Passes.optimize p.Ssa_ir.Ir.funcs;
  let image = Riscv_cc.Codegen.compile_to_image p in
  let r = Ooo_riscv.Pipeline.run Params.ss_2way image in
  Alcotest.(check bool) "pointer chase misses in L1D" true
    (r.Ooo_riscv.Pipeline.stats.Engine.l1d_misses > 500)

(* ---------- the target-generic session ---------- *)

let expect_config_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Diag.Error d ->
    Alcotest.(check string) (what ^ ": code") "CONFIG_ERROR"
      (Diag.code_name d.Diag.code)

(* a mismatched ISA/core pair is refused up front, before the ISS runs,
   in both directions and through every entry point *)
let test_session_rejects_isa_core_mismatch () =
  let no_iss (tg : Ooo_common.Session.target) =
    { tg with
      Ooo_common.Session.iss =
        (fun ~dist:_ ~max_insns:_ ?on_retire:_ _ ->
           Alcotest.fail "the ISS ran for a mismatched model") }
  in
  let straight = compile_straight sim_source in
  let riscv = compile_riscv sim_source in
  List.iter
    (fun (label, tg, model, image) ->
       let tg = no_iss tg in
       expect_config_error (label ^ " start") (fun () ->
           Ooo_common.Session.start tg model image);
       expect_config_error (label ^ " region") (fun () ->
           Ooo_common.Session.start ~from:10 tg model image);
       expect_config_error (label ^ " resume") (fun () ->
           Ooo_common.Session.resume tg model image
             (Ooo_common.Bin.reader ""));
       expect_config_error (label ^ " engine") (fun () ->
           Ooo_common.Session.engine tg model image [||]))
    [ ("riscv code on a STRAIGHT core", Ooo_riscv.Pipeline.target,
       Params.straight_2way, riscv);
      ("STRAIGHT code on an SS core", Ooo_straight.Pipeline.target,
       Params.ss_4way, straight) ];
  let w = Workloads.fib ~n:5 () in
  expect_config_error "Experiment.run riscv on straight-4way" (fun () ->
      Straight_core.Experiment.run ~model:Params.straight_4way
        ~target:Straight_core.Experiment.Riscv w);
  expect_config_error "Experiment.run straight-raw on ss-2way" (fun () ->
      Straight_core.Experiment.run ~check:false ~model:Params.ss_2way
        ~target:Straight_core.Experiment.Straight_raw w)

(* a region that starts at or past the end of the program has nothing to
   time: a configuration error, on both targets *)
let test_region_start_past_end () =
  List.iter
    (fun (label, retired, region) ->
       List.iter
         (fun from ->
            expect_config_error
              (Printf.sprintf "%s: region from %d of %d" label from retired)
              (fun () -> region from))
         [ retired; retired + 1; 10 * retired ])
    [ ( "straight",
        (Iss.Straight_iss.run (compile_straight sim_source)).Iss.Trace.retired,
        fun from ->
          Ooo_straight.Pipeline.start_region ~from Params.straight_2way
            (compile_straight sim_source) );
      ( "riscv",
        (Iss.Riscv_iss.run (compile_riscv sim_source)).Iss.Trace.retired,
        fun from ->
          Ooo_riscv.Pipeline.start_region ~from Params.ss_2way
            (compile_riscv sim_source) ) ]

(* ---------- the streamed trace: bounded retained memory ---------- *)

module Session = Ooo_common.Session
module Trace = Iss.Trace

(* The functional reference for the first [stop] retirements: the
   materialized trace, console output, and distance histogram. *)
let reference (tg : Session.target) ?(stop = max_int) image =
  let acc = ref [] in
  let src =
    tg.Session.iss ~dist:true ~max_insns:Session.default_max_insns
      ~on_retire:(fun _ u -> acc := u :: !acc) image
  in
  src.Trace.advance stop;
  (Array.of_list (List.rev !acc), src.Trace.console (),
   Array.copy src.Trace.histogram)

(* Step a live session to completion, sampling what it retains — the
   engine, the stream window and the ISS behind it — every 10k cycles
   and at the end; returns the result and the largest sample. *)
let run_sampled (s : Session.t) =
  let peak = ref 0 in
  let sample () = peak := max !peak (Obj.reachable_words (Obj.repr s)) in
  while not (Engine.finished s.Session.engine) do
    Engine.step s.Session.engine;
    if Engine.cycle s.Session.engine mod 10_000 = 0 then sample ()
  done;
  sample ();
  (Session.finish s, !peak)

let step_engine e =
  while not (Engine.finished e) do Engine.step e done;
  Engine.finish e

let stream_source iterations =
  (Workloads.stream ~iterations ()).Workloads.source

(* The window itself: a consumer that releases as it goes keeps the
   buffer at the size of its lag, whatever the stream's length; the
   array-backed form is complete from the start. *)
let test_uop_stream_window () =
  let module S = Ooo_common.Uop_stream in
  let uop i =
    { Trace.pc = 4 * i; fu = Trace.FU_alu; srcs_dist = [||]; srcs_reg = [||];
      dest_reg = 0; has_dest = true; is_rmov = false; is_nop = false;
      is_spadd = false; mem_addr = i; ctrl = Trace.Not_ctrl }
  in
  let n = 100_000 and lag = 300 in
  let s = S.create () in
  let pulled = ref 0 in
  let src =
    { Trace.advance = (fun _ -> S.push s (uop !pulled); incr pulled);
      is_halted = (fun () -> !pulled >= n);
      count = (fun () -> !pulled);
      console = (fun () -> "done");
      histogram = [||] }
  in
  let run =
    { Trace.output = ""; retired = 0; trace = [||]; dist_histogram = [||] }
  in
  S.attach s run src;
  for i = 0 to n - 1 do
    Alcotest.(check bool) "available" true (S.available s i);
    Alcotest.(check int) "in order" i (S.get s i).Trace.mem_addr;
    if i >= lag then
      Alcotest.(check int) "lagging index still held" (i - lag)
        (S.get s (i - lag)).Trace.mem_addr;
    S.release s (i - lag)
  done;
  Alcotest.(check bool) "last" true (S.is_last s (n - 1));
  Alcotest.(check bool) "complete" true (S.complete s);
  Alcotest.(check int) "produced" n (S.produced s);
  Alcotest.(check string) "output final" "done" run.Trace.output;
  Alcotest.(check int) "retired" n run.Trace.retired;
  Alcotest.(check bool)
    (Printf.sprintf "buffer of %d slots follows the %d-uop lag" (S.retained s)
       lag)
    true
    (S.retained s <= 4 * lag);
  let a = S.of_array (Array.init 5 uop) in
  Alcotest.(check bool) "array: complete" true (S.complete a);
  Alcotest.(check bool) "array: last" true (S.is_last a 4);
  Alcotest.(check bool) "array: past the end" false (S.available a 5)

(* A run ~4x longer retains no more than the short one (10% slack):
   memory follows the in-flight window, not the run length.  Whole runs
   and fast-forwarded regions, both targets, checker armed; the short
   runs also match an array-backed replay of the materialized trace in
   cycles, output and the Fig. 16 histogram. *)
let test_stream_bounded_memory () =
  List.iter
    (fun (label, (tg : Session.target), model, compile) ->
       let start ?from ?len image =
         Session.start ~max_dist:31 ?from ?len tg model image
       in
       let bounded what short long =
         Alcotest.(check bool)
           (Printf.sprintf "%s %s: %d words retained at 4x the length, \
                            %d at 1x" label what long short)
           true
           (float_of_int long <= 1.1 *. float_of_int short)
       in
       (* whole runs: one vs four outer iterations *)
       let short_img = compile (stream_source 1) in
       let r1, peak1 = run_sampled (start short_img) in
       let _, peak4 = run_sampled (start (compile (stream_source 4))) in
       bounded "whole run" peak1 peak4;
       let trace, output, hist = reference tg short_img in
       let st = step_engine (Session.engine ~max_dist:31 tg model short_img trace) in
       Alcotest.(check int) (label ^ " whole run: cycles = array-backed")
         st.Engine.cycles r1.Session.stats.Engine.cycles;
       Alcotest.(check string) (label ^ " whole run: output") output
         r1.Session.output;
       Alcotest.(check (array int)) (label ^ " whole run: Fig. 16 histogram")
         hist r1.Session.dist_histogram;
       (* regions after a warmed fast-forward: 200k vs 800k *)
       let long_img = compile (stream_source 4) in
       let from = 100_000 in
       let r_short, peak_short = run_sampled (start ~from ~len:200_000 long_img) in
       let _, peak_long = run_sampled (start ~from ~len:800_000 long_img) in
       bounded "region" peak_short peak_long;
       let trace, output, _ = reference tg ~stop:(from + 200_000) long_img in
       let w = Ooo_common.Warm.create model in
       Array.iteri
         (fun i u -> if i < from then Ooo_common.Warm.observe w u)
         trace;
       let st =
         step_engine
           (Session.engine ~max_dist:31 ~warm:w tg model long_img
              (Array.sub trace from 200_000))
       in
       Alcotest.(check int) (label ^ " region: cycles = array-backed")
         st.Engine.cycles r_short.Session.stats.Engine.cycles;
       Alcotest.(check string) (label ^ " region: output") output
         r_short.Session.output)
    [ ("straight", Ooo_straight.Pipeline.target, Params.straight_2way,
       compile_straight);
      ("riscv", Ooo_riscv.Pipeline.target, Params.ss_2way, compile_riscv) ]

let suite =
  [ ("cache basics", `Quick, test_cache_basics);
    ("cache LRU", `Quick, test_cache_lru);
    ("cache silent fill", `Quick, test_cache_fill_is_silent);
    ("hierarchy latencies", `Quick, test_hierarchy_latencies);
    ("hierarchy without L3", `Quick, test_hierarchy_no_l3);
    ("gshare learns loop", `Quick, test_gshare_learns_loop);
    ("gshare biased branch", `Quick, test_gshare_biased_branch);
    ("tage learns pattern", `Quick, test_tage_learns_pattern);
    ("return address stack", `Quick, test_ras);
    ("memory dependence predictor", `Quick, test_memdep);
    ("engine: straight runs", `Quick, test_engine_straight_runs);
    ("engine: riscv runs", `Quick, test_engine_riscv_runs);
    ("engine: commit count", `Quick, test_engine_commit_count_matches_trace);
    ("engine: determinism", `Quick, test_engine_determinism);
    ("engine: ideal recovery", `Quick, test_ideal_recovery_not_slower);
    ("engine: deeper frontend", `Quick, test_deeper_frontend_not_faster);
    ("engine: wider machine", `Quick, test_wider_machine_not_slower);
    ("engine: mix totals", `Quick, test_mix_totals);
    ("engine: slow memory", `Quick, test_slow_memory_slower);
    ("engine: checkpointed RMT", `Quick, test_checkpointed_rmt_between);
    ("engine: checkpoint starvation", `Quick, test_checkpoint_starvation);
    ("engine: spadd limit negligible", `Quick, test_spadd_limit_negligible);
    ("session: ISA/core mismatch rejected", `Quick,
     test_session_rejects_isa_core_mismatch);
    ("session: region start past end", `Quick, test_region_start_past_end);
    ("engine: checker on built-in workloads", `Slow, test_checker_on_builtin_workloads);
    ("engine: pointer chase misses", `Slow, test_pointer_chase_misses);
    ("session: uop stream window", `Quick, test_uop_stream_window);
    ("session: streamed trace retains a bounded window", `Slow,
     test_stream_bounded_memory) ]

let () = Alcotest.run "ooo" [ ("ooo", suite) ]
