(* The [sim] workload: compile a program and simulate it on a Table-I
   model with the lockstep checker armed, the end-to-end path of a
   straightsim run.

   The paper's part: dhrystone and coremark at the sizes of
   EXPERIMENTS.md's Fig. 11/12 tables on all four models.  The long
   part: stream with a warmed functional fast-forward followed by a
   multi-million-instruction detailed region, and pointer_chase fully
   detailed, on the 4-way pair.

   Correctness: console output equals the unoptimized-IR interpreter
   reference, the checker validated commits without divergence (a
   divergence raises), committed equals the ISS retirements in the
   detailed region, and every round reproduces the first round's cycle
   count. *)

module Params = Ooo_common.Params
module Engine = Ooo_common.Engine
module Codegen = Straight_cc.Codegen

type target = Riscv | Straight

type config = {
  label : string;             (* "<program>@<model>" *)
  program : string;
  model : Params.t;
  target : target;
  from : int;                 (* fast-forwarded retirements, 0 = none *)
  src : string;
  expect : string;            (* reference console output *)
}

let model_key (m : Params.t) = String.lowercase_ascii m.Params.name

(* The paper's STRAIGHT RE+ relative performance (SS cycles / STRAIGHT
   cycles) read off Figs. 11 and 12, as quoted in EXPERIMENTS.md. *)
let paper_rel_perf =
  [ (("coremark", 4), 1.188);
    (("dhrystone", 4), 1.157);
    (("coremark", 2), 1.055);
    (("dhrystone", 2), 0.926) ]

let paper_models =
  [ (Params.ss_2way, Riscv); (Params.straight_2way, Straight);
    (Params.ss_4way, Riscv); (Params.straight_4way, Straight) ]

let long_models = [ (Params.ss_4way, Riscv); (Params.straight_4way, Straight) ]

(* (program, source, fast-forward, models): the paper's part, then the
   long part. *)
let programs ~tiny =
  let d, c = if tiny then (2, 1) else (200, 5) in
  [ ("dhrystone", (Workloads.dhrystone ~iterations:d ()).Workloads.source, 0, paper_models);
    ("coremark", (Workloads.coremark ~iterations:c ()).Workloads.source, 0, paper_models) ]
  @
  if tiny then
    [ ("stream", (Workloads.stream ~iterations:1 ()).Workloads.source, 100_000, long_models);
      ("pointer_chase",
       (Workloads.pointer_chase ~nodes:256 ~hops:200 ()).Workloads.source, 0, long_models) ]
  else
    (* 10 iterations retire ~2.3M (RV32IM) / ~3.1M (STRAIGHT)
       instructions; the first million are fast-forwarded *)
    [ ("stream", (Workloads.stream ~iterations:10 ()).Workloads.source, 1_000_000, long_models);
      ("pointer_chase", (Workloads.pointer_chase ()).Workloads.source, 0, long_models) ]

(* Set-up: generate the sources and their reference outputs. *)
let setup ~tiny : config list =
  List.concat_map
    (fun (program, src, from, models) ->
       let expect = (Fuzz.Diff.reference src).Fuzz.Diff.output in
       List.map
         (fun (model, target) ->
            { label = program ^ "@" ^ model_key model;
              program; model; target; from; src; expect })
         models)
    (programs ~tiny)

(* ---------- one simulation ---------- *)

type run = {
  cfg : config;
  stats : Engine.stats;
  output : string;
  retired : int;              (* ISS retirements, fast-forward included *)
  static_insns : int;
  rmovs : int;
  (* traced-run measurements *)
  iss_s : float;
  iss_words : float;
  engine_s : float;
  engine_words : float;
  finish_s : float;
}

let max_dist = Params.straight_max_dist

(* Compile exactly as [Straight_core.Experiment.run] does: O2 middle
   end, RE+ at the Table-I maximum distance for STRAIGHT. *)
let compile (c : config) : Assembler.Image.t * int * int =
  Obs.span ~id:c.label "compile" (fun () ->
      let ir =
        Obs.span ~id:c.label "frontend.minic" (fun () -> Wasm.Front.compile_any c.src)
      in
      Obs.span ~id:c.label "ssa_ir" (fun () -> Compile_wl.optimize ir);
      match c.target with
      | Straight ->
        let config = { Codegen.max_dist; level = Codegen.Re_plus } in
        let items =
          Obs.span ~id:c.label "straight_cc" (fun () -> Codegen.compile ~config ir)
        in
        let st = Codegen.stats_of_items items in
        ( Obs.span ~id:c.label "assembler" (fun () ->
              Assembler.Asm.Straight.assemble ~entry:"_start" items),
          st.Codegen.total, st.Codegen.rmov )
      | Riscv ->
        let items =
          Obs.span ~id:c.label "riscv_cc" (fun () -> Riscv_cc.Codegen.compile ir)
        in
        let image =
          Obs.span ~id:c.label "assembler" (fun () ->
              Assembler.Asm.Riscv.assemble ~entry:"_start" items)
        in
        (image, Array.length image.Assembler.Image.text, 0))

(* A started pipeline session, target-independent. *)
type session = {
  engine : Engine.t;
  run_info : Iss.Trace.run;
  finish : unit -> Engine.stats;
}

let start ~check (c : config) image : session =
  match c.target with
  | Straight ->
    let s =
      if c.from = 0 then
        Ooo_straight.Pipeline.start ~check ~max_dist c.model image
      else
        Ooo_straight.Pipeline.start_region ~check ~max_dist ~from:c.from c.model image
    in
    { engine = s.Ooo_straight.Pipeline.engine;
      run_info = s.Ooo_straight.Pipeline.run_info;
      finish = (fun () -> (Ooo_straight.Pipeline.finish s).Ooo_straight.Pipeline.stats) }
  | Riscv ->
    let s =
      if c.from = 0 then Ooo_riscv.Pipeline.start ~check c.model image
      else Ooo_riscv.Pipeline.start_region ~check ~from:c.from c.model image
    in
    { engine = s.Ooo_riscv.Pipeline.engine;
      run_info = s.Ooo_riscv.Pipeline.run_info;
      finish = (fun () -> (Ooo_riscv.Pipeline.finish s).Ooo_riscv.Pipeline.stats) }

(* [timed f] = (result, CPU seconds, words allocated). *)
let timed f =
  let w0 = Obs.alloc_words () in
  let t0 = Obs.cpu () in
  let v = f () in
  (v, Obs.cpu () -. t0, Obs.alloc_words () -. w0)

let step_all (e : Engine.t) =
  while not (Engine.finished e) do
    Engine.step e
  done

(* The measured path: compile, ISS (trace build and warming), engine,
   checker finish. *)
let simulate (c : config) : run =
  Obs.span ~id:c.label "sim" (fun () ->
      let image, static_insns, rmovs = compile c in
      let s, iss_s, iss_words =
        timed (fun () -> Obs.span ~id:c.label "iss" (fun () -> start ~check:true c image))
      in
      let (), engine_s, engine_words =
        timed (fun () -> Obs.span ~id:c.label "engine" (fun () -> step_all s.engine))
      in
      let stats, finish_s, _ =
        timed (fun () -> Obs.span ~id:c.label "finish" s.finish)
      in
      { cfg = c; stats; output = s.run_info.Iss.Trace.output;
        retired = s.run_info.Iss.Trace.retired; static_insns; rmovs;
        iss_s; iss_words; engine_s; engine_words; finish_s })

(* The same engine run without the checker, for the traced run's
   checker cost: engine + finish seconds. *)
let unchecked_engine_s (c : config) : float =
  let traced = !Obs.tracing in
  Obs.tracing := false;
  Fun.protect ~finally:(fun () -> Obs.tracing := traced) (fun () ->
      let image, _, _ = compile c in
      let s = start ~check:false c image in
      let (), engine_s, _ = timed (fun () -> step_all s.engine) in
      let _, finish_s, _ = timed s.finish in
      engine_s +. finish_s)

let verify ~(cycles : (string, int) Hashtbl.t) (r : run) : string list =
  let c = r.cfg in
  let st = r.stats in
  List.filter_map Fun.id
    [ (if r.output <> c.expect then
         Some (Printf.sprintf "%s: output %S, reference %S" c.label r.output c.expect)
       else None);
      (if st.Engine.commits_checked = 0 then
         Some (c.label ^ ": the lockstep checker validated no commits")
       else None);
      (if st.Engine.committed <> r.retired - c.from then
         Some (Printf.sprintf "%s: committed %d, ISS retired %d in the region"
                 c.label st.Engine.committed (r.retired - c.from))
       else None);
      (match Hashtbl.find_opt cycles c.label with
       | None -> Hashtbl.replace cycles c.label st.Engine.cycles; None
       | Some n when n = st.Engine.cycles -> None
       | Some n ->
         Some (Printf.sprintf "%s: %d cycles, first round %d" c.label st.Engine.cycles n)) ]

(* Mean absolute error of the STRAIGHT RE+ relative performance against
   the paper's four Fig. 11/12 values, from one round's cycle counts. *)
let rel_perf_err (runs : run list) : float =
  let cyc program (m : Params.t) =
    (List.find (fun r -> r.cfg.program = program && r.cfg.model == m) runs).stats
      .Engine.cycles
  in
  let errs =
    List.map
      (fun ((program, width), paper) ->
         let ss, st =
           if width = 2 then (Params.ss_2way, Params.straight_2way)
           else (Params.ss_4way, Params.straight_4way)
         in
         let rel = float_of_int (cyc program ss) /. float_of_int (cyc program st) in
         Float.abs (rel -. paper))
      paper_rel_perf
  in
  List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)
