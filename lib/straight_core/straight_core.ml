(* Public facade of the STRAIGHT reproduction library.

   Typical use:

   {[
     let exp = Straight_core.Experiment.run
         ~model:Straight_core.Models.straight_4way
         ~target:(Straight `Re_plus)
         (Workloads.coremark ())
     in
     Printf.printf "IPC %.2f\n" exp.ipc
   ]}

   See examples/ for runnable programs and bench/ for the per-figure
   reproduction harness. *)

module Models = struct
  include Ooo_common.Params

  let all = [ ss_2way; straight_2way; ss_4way; straight_4way ]
end

(* Structured diagnostics: one place that understands every error the
   toolchain and the simulators can produce.  New code raises
   [Diag.Error] directly; the per-library [..._error of string]
   exceptions predate [Diag] and are mapped here so drivers and tests
   can report uniformly and pick exit codes without a catch-all. *)
module Diagnostics = struct
  include Diag

  let of_exn : exn -> Diag.t option = function
    | Diag.Error d -> Some d
    | Minic.Lexer.Lex_error m -> Some (Diag.make Diag.Lex_error m)
    | Minic.Parser.Parse_error m -> Some (Diag.make Diag.Parse_error m)
    | Minic.Lower.Lower_error m -> Some (Diag.make Diag.Lower_error m)
    | Ssa_ir.Analysis.Invalid_ir m -> Some (Diag.make Diag.Invalid_ir m)
    | Ssa_ir.Interp.Interp_error m -> Some (Diag.make Diag.Interp_error m)
    | Straight_cc.Codegen.Codegen_error m ->
      Some (Diag.make ~context:[ ("target", "straight") ] Diag.Codegen_error m)
    | Riscv_cc.Codegen.Codegen_error m ->
      Some (Diag.make ~context:[ ("target", "riscv") ] Diag.Codegen_error m)
    | Straight_isa.Encoding.Encode_error m ->
      Some (Diag.make ~context:[ ("target", "straight") ] Diag.Encode_error m)
    | Riscv_isa.Encoding.Encode_error m ->
      Some (Diag.make ~context:[ ("target", "riscv") ] Diag.Encode_error m)
    | Straight_isa.Parser.Parse_error m ->
      Some (Diag.make ~context:[ ("source", "straight-asm") ] Diag.Parse_error m)
    | Riscv_isa.Parser.Parse_error m ->
      Some (Diag.make ~context:[ ("source", "riscv-asm") ] Diag.Parse_error m)
    | Assembler.Asm.Asm_error m -> Some (Diag.make Diag.Asm_error m)
    | Iss.Straight_iss.Exec_error m ->
      Some (Diag.make ~context:[ ("iss", "straight") ] Diag.Exec_error m)
    | Iss.Riscv_iss.Exec_error m ->
      Some (Diag.make ~context:[ ("iss", "riscv") ] Diag.Exec_error m)
    | _ -> None
end

module Compile = struct
  (* [frontend ?opt ?checked src] parses + lowers + optimizes source
     into SSA IR (each call returns a fresh program: back ends mutate
     the IR).  The front-end is sniffed from the content — WAT modules
     start with '(' (lib/wasm), anything else is MiniC — so WASM
     workloads flow through every consumer of this entry point.  [opt]
     selects the middle-end level (default O2, matching the paper's
     clang -O2); [checked] validates the SSA after every pass, blaming
     the culprit pass on violation. *)
  let frontend ?(opt = Ssa_ir.Passes.O2) ?(checked = false) (src : string) :
    Ssa_ir.Ir.program =
    let p = Wasm.Front.compile_any src in
    let run =
      if checked then Ssa_ir.Passes.checked_at else Ssa_ir.Passes.optimize_at
    in
    List.iter (run opt) p.Ssa_ir.Ir.funcs;
    p

  (* [to_straight ?max_dist ~level src] compiles MiniC to a STRAIGHT
     image. *)
  let to_straight ?opt ?checked
      ?(max_dist = Ooo_common.Params.straight_max_dist)
      ~(level : Straight_cc.Codegen.opt_level) (src : string) :
    Assembler.Image.t * Straight_cc.Codegen.stats =
    let p = frontend ?opt ?checked src in
    let config = { Straight_cc.Codegen.max_dist; level } in
    let items = Straight_cc.Codegen.compile ~config p in
    let stats = Straight_cc.Codegen.stats_of_items items in
    (Assembler.Asm.Straight.assemble ~entry:"_start" items, stats)

  (* [to_riscv src] compiles MiniC to an RV32IM image. *)
  let to_riscv ?opt ?checked (src : string) : Assembler.Image.t =
    Riscv_cc.Codegen.compile_to_image (frontend ?opt ?checked src)

  (* [straight_asm ...] returns the generated assembly text (Fig. 10). *)
  let straight_asm ?opt ?checked
      ?(max_dist = Ooo_common.Params.straight_max_dist)
      ~level (src : string) : string =
    let config = { Straight_cc.Codegen.max_dist; level } in
    Assembler.Asm.Straight.program_to_string
      (Straight_cc.Codegen.compile ~config (frontend ?opt ?checked src))

  let riscv_asm ?opt ?checked (src : string) : string =
    Assembler.Asm.Riscv.program_to_string
      (Riscv_cc.Codegen.compile (frontend ?opt ?checked src))
end

module Experiment = struct
  type target =
    | Straight_raw
    | Straight_re
    | Riscv

  let target_label = function
    | Straight_raw -> "STRAIGHT(RAW)"
    | Straight_re -> "STRAIGHT(RE+)"
    | Riscv -> "SS"

  type result = {
    workload : string;
    model : string;
    target : target;
    cycles : int;
    committed : int;
    ipc : float;
    output : string;
    stats : Ooo_common.Engine.stats;
    dist_histogram : int array;        (* empty for the RV32IM target *)
  }

  (* The one place a target selects its compiler and its session
     target: [compile ?max_dist target source] is the image to simulate
     and the ISA side of the session that simulates it. *)
  let compile ?(max_dist = Ooo_common.Params.straight_max_dist)
      (target : target) (src : string) :
    Assembler.Image.t * Ooo_common.Session.target =
    let straight level =
      ( fst (Compile.to_straight ~max_dist ~level src),
        Ooo_straight.Pipeline.target )
    in
    match target with
    | Riscv -> (Compile.to_riscv src, Ooo_riscv.Pipeline.target)
    | Straight_raw -> straight Straight_cc.Codegen.Raw
    | Straight_re -> straight Straight_cc.Codegen.Re_plus

  let summarize ~(model : Ooo_common.Params.t) ~(target : target)
      (w : Workloads.t) (r : Ooo_common.Session.result) : result =
    let stats = r.Ooo_common.Session.stats in
    { workload = w.Workloads.name;
      model = model.Ooo_common.Params.name;
      target;
      cycles = stats.Ooo_common.Engine.cycles;
      committed = stats.Ooo_common.Engine.committed;
      ipc = stats.Ooo_common.Engine.ipc;
      output = r.Ooo_common.Session.output;
      stats;
      dist_histogram = r.Ooo_common.Session.dist_histogram }

  (* [run ~model ~target ?max_dist workload] compiles the workload for the
     target ISA and simulates it on the cycle-level model. *)
  let run ?(max_dist = Ooo_common.Params.straight_max_dist) ?(check = true)
      ~(model : Ooo_common.Params.t) ~(target : target)
      (w : Workloads.t) : result =
    let image, st = compile ~max_dist target w.Workloads.source in
    summarize ~model ~target w
      (Ooo_common.Session.run ~check ~max_dist st model image)

  (* Relative performance (inverse cycles), the metric of Figs. 11-14. *)
  let relative_perf ~(baseline : result) (r : result) : float =
    float_of_int baseline.cycles /. float_of_int r.cycles
end
