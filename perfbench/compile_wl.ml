(* The [compile] workload: a seeded corpus of generated MiniC and WAT
   programs plus every built-in workload source, each taken through the
   full straightc path at O2 for STRAIGHT RE+ and RV32IM — front end, SSA
   passes, code generation, assembly, both binary linters and
   translation validation.

   Correctness: the first compile of each program runs both images on
   their ISS and compares console output and exit value with the
   unoptimized-IR interpreter reference (computed during set-up, outside
   the timed region); every compile must produce no lint or TV Error
   finding, and later compiles of a program must reproduce its first
   images word for word. *)

module Ir = Ssa_ir.Ir
module Passes = Ssa_ir.Passes
module Codegen = Straight_cc.Codegen
module Asm = Assembler.Asm

type lang = Minic | Wasm

type prog = {
  label : string;
  lang : lang;
  src : string;
  expect : Fuzz.Diff.exec;
}

(* Built-in workload sources at the daemon's quick sizes: compile cost
   does not depend on iteration counts, and the quick sizes keep the
   reference interpretation cheap. *)
let builtins ~tiny : (string * string) list =
  let names =
    if tiny then [ "fib"; "wasm_crc32" ] else Sweep.Grid.workload_names
  in
  List.map
    (fun n -> (n, (Sweep.Grid.workload ~quick:true n).Workloads.source))
    names
  @ if tiny then [] else [ ("stream", (Workloads.stream ~iterations:1 ()).Workloads.source) ]

(* Generated programs: [n] of each front end, program seeds derived from
   the workload seed so distinct workload seeds give disjoint corpora. *)
let generated ~seed ~n : (string * string) list =
  List.concat
    (List.init n (fun i ->
         let ps = (seed * 1000) + i in
         [ (Printf.sprintf "minic-%d" ps, Fuzz.Gen.render (Fuzz.Gen.generate ps));
           (Printf.sprintf "wat-%d" ps,
            Fuzz.Gen_wasm.render (Fuzz.Gen_wasm.generate ps)) ]))

let sources ~tiny ~seed : (string * string) list =
  builtins ~tiny @ generated ~seed ~n:(if tiny then 3 else 500)

(* Set-up: generate the corpus and the reference outputs. *)
let setup ~tiny ~seed : prog list =
  List.map
    (fun (label, src) ->
       { label;
         lang = (if Wasm.Front.looks_like_wat src then Wasm else Minic);
         src;
         expect = Fuzz.Diff.reference src })
    (sources ~tiny ~seed)

(* ---------- one compile ---------- *)

(* Per-pass accounting for the traced run: each pass of the O2 pipeline
   is wrapped, and [Passes.run_passes] iterates the wrapped list exactly
   as [Passes.optimize_at O2] iterates the plain one. *)
type pass_stat = { mutable p_time : float; mutable p_applied : int }

let pass_stats : (string * pass_stat) list =
  List.map
    (fun (p : Passes.pass) -> (p.Passes.pass_name, { p_time = 0.0; p_applied = 0 }))
    (Passes.pipeline Passes.O2)

let traced_pipeline : Passes.pass list =
  List.map
    (fun (p : Passes.pass) ->
       let st = List.assoc p.Passes.pass_name pass_stats in
       { p with
         Passes.pass_run =
           (fun f ->
              let t0 = Obs.cpu () in
              let changed = p.Passes.pass_run f in
              st.p_time <- st.p_time +. (Obs.cpu () -. t0);
              if changed then st.p_applied <- st.p_applied + 1;
              changed) })
    (Passes.pipeline Passes.O2)

let optimize (ir : Ir.program) =
  let passes =
    if !Obs.tracing then traced_pipeline else Passes.pipeline Passes.O2
  in
  List.iter (Passes.run_passes passes) ir.Ir.funcs

let ir_insns (ir : Ir.program) : int =
  List.fold_left
    (fun acc (f : Ir.func) ->
       List.fold_left
         (fun acc (b : Ir.block) -> acc + List.length b.Ir.insts + 1)
         acc f.Ir.blocks)
    0 ir.Ir.funcs

type output = {
  straight : Assembler.Image.t;
  riscv : Assembler.Image.t;
  findings : Lint_report.finding list;
  funcs : int;                  (* functions validated per target *)
  static : Codegen.stats;       (* STRAIGHT static mix *)
  insns_after : int;            (* IR instructions after the passes *)
  frontend_words : float;       (* words the front end allocated *)
}

(* RE+ at the Table-I maximum distance, as the simulated binaries are
   built; validating at the architectural 1023 costs TV ~50x more. *)
let config =
  { Codegen.max_dist = Ooo_common.Params.straight_max_dist; level = Codegen.Re_plus }

(* The measured path. *)
let compile (p : prog) : output =
  Obs.span ~id:p.label "compile" (fun () ->
      let w0 = Obs.alloc_words () in
      let ir =
        Obs.span ~id:p.label
          (match p.lang with Minic -> "frontend.minic" | Wasm -> "frontend.wasm")
          (fun () -> Wasm.Front.compile_any p.src)
      in
      let frontend_words = Obs.alloc_words () -. w0 in
      Obs.span ~id:p.label "ssa_ir" (fun () -> optimize ir);
      let insns_after = if !Obs.tracing then ir_insns ir else 0 in
      let sir = Tv.Validate.clone_program ir in
      let sitems =
        Obs.span ~id:p.label "straight_cc" (fun () -> Codegen.compile ~config sir)
      in
      let straight =
        Obs.span ~id:p.label "assembler" (fun () ->
            Asm.Straight.assemble ~entry:"_start" sitems)
      in
      let slint =
        Obs.span ~id:p.label "lint" (fun () ->
            Straight_lint.Lint.lint ~max_dist:config.Codegen.max_dist straight)
      in
      let stv =
        Obs.span ~id:p.label "tv" (fun () ->
            Tv.Validate.validate_image ~max_dist:config.Codegen.max_dist
              ~target:Tv.Validate.Straight sir straight)
      in
      let ritems = Obs.span ~id:p.label "riscv_cc" (fun () -> Riscv_cc.Codegen.compile ir) in
      let riscv =
        Obs.span ~id:p.label "assembler" (fun () ->
            Asm.Riscv.assemble ~entry:"_start" ritems)
      in
      let rlint = Obs.span ~id:p.label "lint" (fun () -> Riscv_lint.Lint.lint riscv) in
      let rtv =
        Obs.span ~id:p.label "tv" (fun () ->
            Tv.Validate.validate_image ~target:Tv.Validate.Riscv ir riscv)
      in
      { straight;
        riscv;
        findings = slint @ stv @ rlint @ rtv;
        funcs = List.length ir.Ir.funcs;
        static = Codegen.stats_of_items sitems;
        insns_after;
        frontend_words })

(* ---------- correctness ---------- *)

let max_insns = Fuzz.Diff.max_insns

let run_straight image : string * int32 =
  let s =
    Iss.Straight_iss.start
      ~config:{ Iss.Straight_iss.default_config with max_insns } image
  in
  Iss.Straight_iss.run_session s;
  let r = Iss.Straight_iss.finish s in
  (r.Iss.Trace.output, Iss.Straight_iss.exit_value s)

let run_riscv image : string * int32 =
  let o =
    Iss.Riscv_iss.run_outcome
      ~config:{ Iss.Riscv_iss.default_config with max_insns } image
  in
  (o.Iss.Riscv_iss.run.Iss.Trace.output, Iss.Riscv_iss.exit_value o)

let image_digest (i : Assembler.Image.t) =
  Digest.string (Marshal.to_string (i.Assembler.Image.text, i.Assembler.Image.data) [])

(* [verify first p o] returns the reasons [o] is wrong, [] when right. *)
let verify ~(first : (string, string * string) Hashtbl.t) (p : prog) (o : output) :
  string list =
  let errs =
    List.map
      (fun f -> p.label ^ ": " ^ Lint_report.finding_to_string f)
      (Lint_report.errors o.findings)
  in
  let digests = (image_digest o.straight, image_digest o.riscv) in
  let behaviour () =
    List.filter_map
      (fun (target, run, image) ->
         match run image with
         | exception e ->
           Some (Printf.sprintf "%s: %s ISS: %s" p.label target (Fuzz.Diff.exn_message e))
         | out, exit ->
           if out <> p.expect.Fuzz.Diff.output then
             Some (Printf.sprintf "%s: %s output %S, reference %S" p.label target out
                     p.expect.Fuzz.Diff.output)
           else if exit <> p.expect.Fuzz.Diff.exit_value then
             Some (Printf.sprintf "%s: %s exit %ld, reference %ld" p.label target exit
                     p.expect.Fuzz.Diff.exit_value)
           else None)
      [ ("straight", run_straight, o.straight); ("riscv", run_riscv, o.riscv) ]
  in
  match Hashtbl.find_opt first p.label with
  | None ->
    Hashtbl.replace first p.label digests;
    errs @ behaviour ()
  | Some d when d = digests -> errs
  | Some _ -> errs @ [ p.label ^ ": images differ from this program's first compile" ]
