(** The STRAIGHT out-of-order pipeline (the paper's Fig. 2): the shared
    engine instantiated with RP-based operand determination (Fig. 3), a
    6-stage front end, and single-ROB-read recovery (Fig. 4). *)

val static_uop : Assembler.Image.t -> int -> Iss.Trace.uop option
(** Decode a static instruction for wrong-path fetch ([None] at HALT or
    outside .text). *)

val target : Ooo_common.Session.target
(** The STRAIGHT side of a {!Ooo_common.Session}: {!static_uop}, the
    STRAIGHT ISS (a full run collects the distance histogram), and the
    RP rename family.  The functions below are {!Ooo_common.Session}'s
    over this target, with [max_dist] defaulting to
    {!Straight_isa.Isa.max_dist}. *)

type result = Ooo_common.Session.result = {
  stats : Ooo_common.Engine.stats;
  output : string;                (** the program's console output *)
  dist_histogram : int array;     (** source-distance histogram (Fig. 16) *)
}

type session = Ooo_common.Session.t = {
  engine : Ooo_common.Engine.t;
  run_info : Iss.Trace.run;
  stream : Ooo_common.Uop_stream.t;
}

val start :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  Ooo_common.Params.t -> Assembler.Image.t -> session
(** {!Ooo_common.Session.start} of the whole program. *)

val start_region :
  ?max_insns:int -> ?check:bool -> ?max_dist:int -> ?warm:bool ->
  from:int -> ?len:int ->
  Ooo_common.Params.t -> Assembler.Image.t -> session
(** {!Ooo_common.Session.start} of the region of [len] retirements after
    the first [from] (fast-forwarded, warmed unless [warm] is [false]).
    @raise Diag.Error code [Config_error] when [from] is at or past the
    end of the program. *)

val finish : session -> result
(** {!Ooo_common.Session.finish}. *)

val run :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  Ooo_common.Params.t -> Assembler.Image.t -> result
(** {!Ooo_common.Session.run}: [start] stepped to completion, then
    [finish].  [check] (default [true]) arms the lockstep golden-model
    checker.
    @raise Diag.Error on a model/target mismatch, simulator deadlock or
    checker divergence. *)
