(** The correct-path uop trace as a pull-based stream with a bounded
    window.

    The engine pulls uops by trace index as fetch advances; a stream fed
    by a live functional simulator ({!attach}) runs the ISS on demand,
    one retirement at a time.  Only the window from the oldest index the
    consumer still needs ({!release}) to the produced head is retained,
    in a buffer that slides forward and grows only when the window
    itself outgrows it — so a run's memory follows its in-flight span,
    not its length (the paper's precise-state argument, Section III-A:
    the machine only ever needs the in-flight window). *)

type t

val of_array : Iss.Trace.uop array -> t
(** A complete stream over an already collected trace (or slice):
    nothing is produced or dropped. *)

val create : ?digest:bool -> unit -> t
(** An empty stream, fed by {!push} — normally from the [on_retire]
    observer of the ISS session {!attach}ed to it.  With [digest] (off
    by default) every produced uop is also folded into a chained
    {!Iss.Trace.digester}, for {!digest}. *)

val push : t -> Iss.Trace.uop -> unit
(** Append the next uop at the produced head. *)

val attach : ?stop:int -> t -> Iss.Trace.run -> Iss.Trace.source -> unit
(** Make [source] the producer: a pull past the head advances it one
    retirement at a time until it halts or has retired [stop]
    instructions (unbounded when omitted), at which point the stream is
    complete.  [run] is kept current as the ISS advances: [retired]
    after every pull, [output] once the stream completes. *)

val available : t -> int -> bool
(** [available s i]: does index [i] exist?  Pulls until it is produced
    or the stream is complete. *)

val get : t -> int -> Iss.Trace.uop
(** The uop at index [i], which must be produced ({!available}) and not
    yet released. *)

val is_last : t -> int -> bool
(** [i] is the final index of the stream (pulls one uop ahead). *)

val release : t -> int -> unit
(** [release s i]: indices below [i] will not be asked for again. *)

val fill_to : t -> int -> unit
(** Pull until [n] uops are produced or the stream is complete. *)

val skip_to : t -> int -> unit
(** {!fill_to} [n] and {!release} [n]: replay a prefix without keeping
    it (the digest, when on, still covers it). *)

val produced : t -> int
(** The head: uops produced so far. *)

val complete : t -> bool
(** Nothing beyond {!produced} will ever be produced. *)

val retained : t -> int
(** Length of the retained buffer, in uop slots (a memory probe). *)

val output : t -> string
(** The attached source's console output so far ([""] without one). *)

val forget_digest : t -> unit
(** Stop folding produced uops into the digest (a restored session that
    will take no further snapshot); {!digest} raises afterwards. *)

val digest : t -> string
(** {!Iss.Trace.digest} of the produced prefix [0, produced).
    @raise Invalid_argument unless the stream was created with
    [~digest:true] and has not {!forget_digest}ed. *)
