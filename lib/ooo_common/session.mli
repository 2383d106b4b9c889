(** One simulation session for every target.

    The STRAIGHT core and the superscalar baseline are one out-of-order
    machine ({!Engine}) that differ only in operand determination (a
    {!Params.rename_model}).  A {!target} holds the ISA side — the
    wrong-path decoder, the functional simulator, and the rename-model
    family its code runs on — and the session glue (functional run,
    fast-forward with warming, lockstep checker, checkpoint resume) is
    written once over it. *)

type family =
  | Rp_family   (** STRAIGHT code: [Params.Rp] models *)
  | Rmt_family  (** RV32IM code: [Params.Rmt] / [Params.Rmt_checkpoint] *)

type target = {
  decode : Assembler.Image.t -> int -> Iss.Trace.uop option;
      (** static decode for wrong-path fetch *)
  iss :
    trace:bool -> max_insns:int ->
    ?on_retire:(int -> Iss.Trace.uop -> unit) -> ?until:int ->
    Assembler.Image.t -> Iss.Trace.run;
      (** run the ISS until it halts or has retired [until]
          instructions, feeding each retirement to [on_retire].
          [trace:true] is a full run (uop trace kept, STRAIGHT distance
          histogram collected); [trace:false] a streaming pass that keeps
          neither. *)
  family : family;
}

(** A live run: the engine plus the (already complete) ISS result it
    replays. *)
type t = {
  engine : Engine.t;
  run_info : Iss.Trace.run;
}

type result = {
  stats : Engine.stats;
  output : string;                (** the program's console output *)
  dist_histogram : int array;     (** Fig. 16; empty for RV32IM *)
}

val default_max_insns : int
(** The ISS budget when [max_insns] is omitted (50M). *)

val check_model : target -> Params.t -> unit
(** @raise Diag.Error code [Config_error] when the model's rename model
    is not of the target's family. *)

val engine :
  ?check:bool -> ?max_dist:int -> ?warm:Warm.t ->
  target -> Params.t -> Assembler.Image.t -> Iss.Trace.uop array ->
  Engine.t
(** A cycle-0 engine over an already collected trace (or slice), with
    the lockstep checker unless [check] is [false]; [max_dist] bounds
    checked RP distances (unbounded when omitted), [warm] hands over
    functionally warmed tables.
    @raise Diag.Error code [Config_error] on a model/target mismatch. *)

val start :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  ?from:int -> ?len:int -> ?warm:bool ->
  target -> Params.t -> Assembler.Image.t -> t
(** Run the ISS and stand the engine up at cycle 0; step it until
    {!Engine.finished}, then {!finish}.  Without [from] and [len] the
    whole program is timed.  With either, the ISS fast-forwards over the
    first [from] (default 0) retirements — functionally warming caches,
    branch predictor and RAS unless [warm] is [false] — and only the
    next [len] (default: the rest) are timed; [run_info.trace] holds
    just those.
    @raise Diag.Error code [Config_error] on a model/target mismatch
    (before the ISS runs), or when [from] is at or past the end of the
    program. *)

val resume :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  target -> Params.t -> Assembler.Image.t -> Bin.reader -> t
(** {!start} of the whole program, with the engine state read from a
    checkpoint image; the caller checks that the regenerated trace
    matches the checkpoint.
    @raise Bin.Corrupt on a malformed or mismatched image. *)

val finish : t -> result
(** Run the checker's end-of-run validation and freeze statistics. *)

val run :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  target -> Params.t -> Assembler.Image.t -> result
(** {!start} of the whole program, stepped to completion, {!finish}ed.
    @raise Diag.Error on a model/target mismatch, simulator deadlock or
    checker divergence. *)
