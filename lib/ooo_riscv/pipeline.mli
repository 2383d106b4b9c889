(** The superscalar RV32IM baseline pipeline: the shared engine
    instantiated with RAM-based RMT renaming, an 8-stage front end, and
    ROB-walk misprediction recovery (Section V-A). *)

val static_uop : Assembler.Image.t -> int -> Iss.Trace.uop option
(** Decode a static instruction for wrong-path fetch ([None] at EBREAK or
    outside .text). *)

val target : Ooo_common.Session.target
(** The RV32IM side of a {!Ooo_common.Session}: {!static_uop}, the
    RV32IM ISS, and the RMT rename family.  The functions below are
    {!Ooo_common.Session}'s over this target. *)

type result = Ooo_common.Session.result = {
  stats : Ooo_common.Engine.stats;
  output : string;
  dist_histogram : int array;     (** always empty for RV32IM *)
}

type session = Ooo_common.Session.t = {
  engine : Ooo_common.Engine.t;
  run_info : Iss.Trace.run;
  stream : Ooo_common.Uop_stream.t;
}

val start :
  ?max_insns:int -> ?check:bool ->
  Ooo_common.Params.t -> Assembler.Image.t -> session
(** {!Ooo_common.Session.start} of the whole program. *)

val start_region :
  ?max_insns:int -> ?check:bool -> ?warm:bool ->
  from:int -> ?len:int ->
  Ooo_common.Params.t -> Assembler.Image.t -> session
(** {!Ooo_common.Session.start} of the region of [len] retirements after
    the first [from] (fast-forwarded, warmed unless [warm] is [false]).
    @raise Diag.Error code [Config_error] when [from] is at or past the
    end of the program. *)

val finish : session -> result
(** {!Ooo_common.Session.finish}. *)

val run :
  ?max_insns:int -> ?check:bool ->
  Ooo_common.Params.t -> Assembler.Image.t -> result
(** {!Ooo_common.Session.run}: [start] stepped to completion, then
    [finish].  [check] (default [true]) arms the lockstep golden-model
    checker.
    @raise Diag.Error on a model/target mismatch, simulator deadlock or
    checker divergence. *)
