(** Normalized dynamic-instruction records.

    The functional simulators retire instructions in program order and emit
    one {!uop} per retired instruction; the cycle-level models replay this
    correct-path trace (oracle outcomes for branches and memory addresses)
    while fetching wrong-path instructions from the static image. *)

type fu_class =
  | FU_alu          (** 1-cycle integer op (incl. RMOV and NOP slots) *)
  | FU_mul
  | FU_div
  | FU_branch       (** conditional branch / jump resolution unit *)
  | FU_load
  | FU_store

type ctrl =
  | Not_ctrl
  | Cond of { taken : bool; target : int }
      (** conditional branch; [target] is the taken destination *)
  | Uncond of { target : int; is_call : bool; is_ret : bool }
      (** [target = -1] when statically unknown (indirect/return) *)

type uop = {
  pc : int;
  fu : fu_class;
  srcs_dist : int array;
      (** STRAIGHT dependences: source distances (zero-distance operands
          dropped).  Empty for RISC-V traces. *)
  srcs_reg : int array;
      (** RISC-V dependences: source logical registers (x0 dropped).
          Empty for STRAIGHT traces. *)
  dest_reg : int;          (** RISC-V destination; 0 = none *)
  has_dest : bool;         (** STRAIGHT: always true; RISC-V: rd <> x0 *)
  is_rmov : bool;          (** instruction-mix bucket of Fig. 15 *)
  is_nop : bool;
  is_spadd : bool;         (** SPADD: serialized in order at decode (III-B) *)
  mem_addr : int;          (** byte address for load/store; 0 otherwise *)
  ctrl : ctrl;
}

val kind_label : uop -> string
(** The Fig. 15 bucket: ["ALU"], ["LD"], ["ST"], ["Jump+Branch"],
    ["RMOV"], or ["NOP"]. *)

val digest : uop array -> string
(** Canonical MD5 hex digest over every field of every uop (chained over
    blocks of 4096): the {!digester} fed with the whole array.  The snapshot and sampling
    machinery regenerate a trace from the workload source and use this
    to prove it matches the one a checkpoint was taken against. *)

type digester
(** An incremental {!digest}: chained over fixed-size blocks of uops, so
    it digests an unbounded stream in constant memory. *)

val digester : unit -> digester
val digest_add : digester -> uop -> unit

val digest_value : digester -> string
(** The digest of every uop added so far ({!digest} of that prefix);
    adding more afterwards is allowed. *)

(** A program run.  The record of a streamed run is filled in as the
    ISS advances: [retired] counts the retirements so far, [output] is
    final once the stream is exhausted. *)
type run = {
  mutable output : string;     (** MMIO console output *)
  mutable retired : int;       (** dynamic instruction count *)
  trace : uop array;           (** empty unless tracing was requested *)
  dist_histogram : int array;  (** source-distance counts by distance;
                                   filled for STRAIGHT runs only *)
}

(** A live functional run of either ISA, advanced on demand: the ISS
    side of a streamed simulation.  Retirements reach the [on_retire]
    observer the ISS session was started with. *)
type source = {
  advance : int -> unit;
      (** execute until HALT or until [n] instructions have retired *)
  is_halted : unit -> bool;
  count : unit -> int;          (** instructions retired so far *)
  console : unit -> string;     (** console output so far *)
  histogram : int array;
      (** live source-distance counts; filled only when the STRAIGHT ISS
          collects them, empty for RV32IM *)
}
