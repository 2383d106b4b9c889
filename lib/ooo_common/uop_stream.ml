(* The correct-path uop trace as a pull-based stream with a bounded
   window.  See uop_stream.mli for the contract.

   Representation: [buf.(i - off)] holds uop [i] for [off <= i < head];
   the consumer needs only [base, head).  When a push finds [buf] full,
   the live window slides down to slot 0 if that frees at least half the
   buffer, and the buffer doubles otherwise — so its length tracks the
   largest window ever retained, not the number of uops produced. *)

module Trace = Iss.Trace

let dummy =
  { Trace.pc = -1; fu = Trace.FU_alu; srcs_dist = [||]; srcs_reg = [||];
    dest_reg = 0; has_dest = false; is_rmov = false; is_nop = false;
    is_spadd = false; mem_addr = 0; ctrl = Trace.Not_ctrl }

type t = {
  mutable buf : Trace.uop array;
  mutable off : int;                 (* index of [buf.(0)] *)
  mutable base : int;                (* oldest index still needed *)
  mutable head : int;                (* one past the youngest produced *)
  mutable complete : bool;
  mutable pull : t -> unit;          (* produce one more uop, or complete *)
  mutable source : Trace.source option;
  mutable digester : Trace.digester option;
}

let of_array a =
  { buf = a; off = 0; base = 0; head = Array.length a; complete = true;
    pull = ignore; source = None; digester = None }

(* without a producer, pulling past the head ends the stream *)
let create ?(digest = false) () =
  { buf = Array.make 256 dummy; off = 0; base = 0; head = 0;
    complete = false; pull = (fun s -> s.complete <- true); source = None;
    digester = (if digest then Some (Trace.digester ()) else None) }

let make_room s =
  let cap = Array.length s.buf in
  let live = s.head - s.base in
  let nbuf = if 2 * live <= cap then s.buf else Array.make (2 * cap) dummy in
  Array.blit s.buf (s.base - s.off) nbuf 0 live;
  if nbuf == s.buf then Array.fill nbuf live (cap - live) dummy;
  s.buf <- nbuf;
  s.off <- s.base

let push s u =
  if s.head - s.off = Array.length s.buf then make_room s;
  s.buf.(s.head - s.off) <- u;
  s.head <- s.head + 1;
  match s.digester with Some d -> Trace.digest_add d u | None -> ()

let attach ?(stop = max_int) s (run : Trace.run) (src : Trace.source) =
  s.source <- Some src;
  s.pull <-
    (fun s ->
       if src.Trace.is_halted () || src.Trace.count () >= stop then begin
         s.complete <- true;
         run.Trace.output <- src.Trace.console ()
       end
       else src.Trace.advance (src.Trace.count () + 1);
       run.Trace.retired <- src.Trace.count ())

let rec pull_past s i =
  (not s.complete) && (s.pull s; i < s.head || pull_past s i)

(* the fast path stays small enough to inline at the engine's call sites *)
let available s i = i < s.head || pull_past s i

let get s i = s.buf.(i - s.off)
let is_last s i = not (available s (i + 1))
let release s i = if i > s.base then s.base <- min i s.head

let fill_to s n = ignore (available s (n - 1))

let skip_to s n =
  while s.head < n && not s.complete do
    s.base <- s.head;
    s.pull s
  done;
  release s n

let produced s = s.head
let complete s = s.complete
let retained s = Array.length s.buf

let output s =
  match s.source with Some src -> src.Trace.console () | None -> ""

let forget_digest s = s.digester <- None

let digest s =
  match s.digester with
  | Some d -> Trace.digest_value d
  | None -> invalid_arg "Uop_stream.digest: the stream keeps no digest"
