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
    dist:bool -> max_insns:int ->
    ?on_retire:(int -> Iss.Trace.uop -> unit) ->
    Assembler.Image.t -> Iss.Trace.source;
      (** a live ISS session at the reset state, feeding each retirement
          to [on_retire]; [dist] collects the STRAIGHT source-distance
          histogram (Fig. 16). *)
  family : family;
}

(** A live run: the engine, pulling the correct path from the ISS
    through [stream] as it fetches. *)
type t = {
  engine : Engine.t;
  run_info : Iss.Trace.run;
      (** filled in as the ISS advances ({!Uop_stream.attach}); final
          once {!Engine.finished} *)
  stream : Uop_stream.t;
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
  ?from:int -> ?len:int -> ?warm:bool -> ?digest:bool ->
  target -> Params.t -> Assembler.Image.t -> t
(** Start the ISS and stand the engine up at cycle 0 over the stream of
    its retirements; step it until {!Engine.finished}, then {!finish}.
    Without [from] and [len] the whole program is timed.  With either,
    the ISS first fast-forwards over [from] (default 0) retirements —
    functionally warming caches, branch predictor and RAS unless [warm]
    is [false] — and the stream then carries the next [len] (default:
    the rest).  Either way the ISS runs only as far ahead as fetch
    pulls, and only the in-flight window of uops is retained.
    [digest] (default [false]) folds every produced uop into the
    stream's prefix digest, which a snapshot-taking session needs.
    @raise Diag.Error code [Config_error] on a model/target mismatch
    (before the ISS runs), or when [from] is at or past the end of the
    program. *)

val resume :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  target -> Params.t -> Assembler.Image.t -> Bin.reader -> t
(** {!start} of the whole program (with the prefix digest on), with the
    engine state read from a checkpoint image: the ISS replays to the
    image's oldest in-flight index without retaining anything, then
    refills the window to the head the image was saved at.  The caller
    checks that the regenerated prefix ({!Uop_stream.digest},
    {!Uop_stream.output}, [run_info.retired]) matches the checkpoint.
    @raise Bin.Corrupt on a malformed or mismatched image. *)

val trace : ?max_insns:int -> target -> Assembler.Image.t -> Iss.Trace.uop array
(** The whole retirement trace, materialized — for callers that replay
    one trace many times through {!engine} (engine-only timing). *)

val finish : t -> result
(** Run the checker's end-of-run validation and freeze statistics. *)

val run :
  ?max_insns:int -> ?check:bool -> ?max_dist:int ->
  target -> Params.t -> Assembler.Image.t -> result
(** {!start} of the whole program, stepped to completion, {!finish}ed.
    @raise Diag.Error on a model/target mismatch, simulator deadlock or
    checker divergence. *)
