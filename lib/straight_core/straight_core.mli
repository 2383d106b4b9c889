(** Public facade of the STRAIGHT reproduction library.

    {[
      let exp =
        Straight_core.Experiment.run
          ~model:Straight_core.Models.straight_4way
          ~target:Straight_core.Experiment.Straight_re
          (Workloads.coremark ())
      in
      Printf.printf "IPC %.2f\n" exp.Straight_core.Experiment.ipc
    ]}

    See [examples/] for runnable programs and [bench/] for the per-figure
    reproduction harness. *)

(** The Table-I model configurations (re-exports {!Ooo_common.Params}). *)
module Models : sig
  include module type of Ooo_common.Params

  val all : t list
  (** [ss_2way; straight_2way; ss_4way; straight_4way]. *)
end

(** Structured diagnostics (re-exports {!Diag}, plus the mapping from
    the legacy per-library exceptions). *)
module Diagnostics : sig
  include module type of struct include Diag end

  val of_exn : exn -> Diag.t option
  (** Map any toolchain or simulator exception to its structured
      diagnostic: [Diag.Error] payloads pass through, the legacy
      [..._error of string] exceptions are classified by origin, and
      anything unrecognized yields [None]. *)
end

(** Compilation pipelines: MiniC source -> SSA IR -> either target. *)
module Compile : sig
  val frontend :
    ?opt:Ssa_ir.Passes.opt_level -> ?checked:bool -> string ->
    Ssa_ir.Ir.program
  (** Parse + lower + optimize.  Each call returns a fresh program (the
      back ends mutate the IR).  [opt] selects the middle-end level
      (default [O2]); [checked] (default [false]) runs
      {!Ssa_ir.Passes.checked_at}, validating the SSA after every pass so
      a violation blames the culprit pass by name. *)

  val to_straight :
    ?opt:Ssa_ir.Passes.opt_level -> ?checked:bool ->
    ?max_dist:int -> level:Straight_cc.Codegen.opt_level -> string ->
    Assembler.Image.t * Straight_cc.Codegen.stats
  (** Compile MiniC to a STRAIGHT image (default max distance: the
      Table-I value, 31). *)

  val to_riscv :
    ?opt:Ssa_ir.Passes.opt_level -> ?checked:bool -> string ->
    Assembler.Image.t

  val straight_asm :
    ?opt:Ssa_ir.Passes.opt_level -> ?checked:bool ->
    ?max_dist:int -> level:Straight_cc.Codegen.opt_level -> string -> string
  (** The generated assembly text (Fig. 10-style inspection). *)

  val riscv_asm :
    ?opt:Ssa_ir.Passes.opt_level -> ?checked:bool -> string -> string
end

(** Running a workload on a cycle-level model. *)
module Experiment : sig
  type target =
    | Straight_raw        (** STRAIGHT compiled by the basic algorithm *)
    | Straight_re         (** STRAIGHT with RE+ redundancy elimination *)
    | Riscv               (** the superscalar baseline *)

  val target_label : target -> string

  type result = {
    workload : string;
    model : string;
    target : target;
    cycles : int;
    committed : int;
    ipc : float;
    output : string;                 (** program console output *)
    stats : Ooo_common.Engine.stats;
    dist_histogram : int array;      (** empty for [Riscv] *)
  }

  val compile :
    ?max_dist:int -> target -> string ->
    Assembler.Image.t * Ooo_common.Session.target
  (** Compile MiniC/WAT source for the target (O2; STRAIGHT at the given
      max distance, default the Table-I 31, RAW or RE+) and pair the
      image with the session target that simulates it — the only place a
      target selects its compiler, ISS and decoder. *)

  val summarize :
    model:Ooo_common.Params.t -> target:target -> Workloads.t ->
    Ooo_common.Session.result -> result
  (** The experiment record of a finished session. *)

  val run :
    ?max_dist:int -> ?check:bool ->
    model:Ooo_common.Params.t -> target:target ->
    Workloads.t -> result
  (** Compile the workload for the target ISA and simulate it.  [check]
      (default [true]) arms the lockstep golden-model checker.
      @raise Diag.Error code [Config_error] when the model's rename
      model does not fit the target's ISA (see
      {!Ooo_common.Session.check_model}). *)

  val relative_perf : baseline:result -> result -> float
  (** Inverse-cycles relative performance, the metric of Figs. 11-14. *)
end
