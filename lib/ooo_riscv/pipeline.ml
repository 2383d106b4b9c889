(* The superscalar RV32IM baseline pipeline: the shared engine instantiated
   with RAM-based RMT renaming, an 8-stage front end, and ROB-walk
   misprediction recovery (Section V-A). *)

module Isa = Riscv_isa.Isa
module Encoding = Riscv_isa.Encoding
module Image = Assembler.Image
module Trace = Iss.Trace
module Session = Ooo_common.Session

(* Decode a static instruction for wrong-path fetch (stopping at
   EBREAK). *)
let static_uop (image : Image.t) pc : Trace.uop option =
  match Option.bind (Image.fetch_word image pc) Encoding.decode with
  | None | Some Isa.Ebreak -> None
  | Some insn -> Some (Iss.Riscv_iss.static_uop ~pc ~taken:false insn)

(* RV32IM has no distance histogram: [dist] is ignored. *)
let target =
  { Session.decode = static_uop;
    iss =
      (fun ~dist:_ ~max_insns ?on_retire image ->
         Iss.Riscv_iss.source
           (Iss.Riscv_iss.start
              ~config:{ Iss.Riscv_iss.collect_trace = false; max_insns }
              ?on_retire image));
    family = Session.Rmt_family }

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

let start ?max_insns ?check params image =
  Session.start ?max_insns ?check target params image

let start_region ?max_insns ?check ?warm ~from ?len params image =
  Session.start ?max_insns ?check ?warm ~from ?len target params image

let finish = Session.finish

let run ?max_insns ?check params image =
  Session.run ?max_insns ?check target params image
