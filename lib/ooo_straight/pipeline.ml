(* The STRAIGHT out-of-order pipeline (Fig. 2): the shared engine
   instantiated with RP-based operand determination, a 6-stage front end,
   and single-read recovery. *)

module Isa = Straight_isa.Isa
module Encoding = Straight_isa.Encoding
module Image = Assembler.Image
module Trace = Iss.Trace
module Session = Ooo_common.Session

(* Decode a static instruction for wrong-path fetch: no dynamic outcomes,
   only the statically known structure; fetch stops at HALT. *)
let static_uop (image : Image.t) pc : Trace.uop option =
  match Option.bind (Image.fetch_word image pc) Encoding.decode with
  | None | Some Isa.Halt -> None
  | Some insn -> Some (Iss.Straight_iss.static_uop ~pc ~taken:false insn)

(* [dist] collects the source-distance histogram (Fig. 16): a whole run
   does, a region or sampling pass does not. *)
let target =
  { Session.decode = static_uop;
    iss =
      (fun ~dist ~max_insns ?on_retire image ->
         Iss.Straight_iss.source
           (Iss.Straight_iss.start
              ~config:{ Iss.Straight_iss.collect_trace = false;
                       collect_dist = dist; max_insns }
              ?on_retire image));
    family = Session.Rp_family }

type result = Session.result = {
  stats : Ooo_common.Engine.stats;
  output : string;
  dist_histogram : int array;
}

type session = Session.t = {
  engine : Ooo_common.Engine.t;
  run_info : Trace.run;
  stream : Ooo_common.Uop_stream.t;
}

let start ?max_insns ?check ?(max_dist = Isa.max_dist) params image =
  Session.start ?max_insns ?check ~max_dist target params image

let start_region ?max_insns ?check ?(max_dist = Isa.max_dist) ?warm ~from
    ?len params image =
  Session.start ?max_insns ?check ~max_dist ?warm ~from ?len target params
    image

let finish = Session.finish

let run ?max_insns ?check ?(max_dist = Isa.max_dist) params image =
  Session.run ?max_insns ?check ~max_dist target params image
