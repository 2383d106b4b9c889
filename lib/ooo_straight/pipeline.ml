(* The STRAIGHT out-of-order pipeline (Fig. 2): the shared engine
   instantiated with RP-based operand determination, a 6-stage front end,
   and single-read recovery. *)

module Isa = Straight_isa.Isa
module Encoding = Straight_isa.Encoding
module Image = Assembler.Image
module Trace = Iss.Trace
module Session = Ooo_common.Session

(* Decode a static instruction for wrong-path fetch: no dynamic outcomes,
   only the statically known structure. *)
let static_uop (image : Image.t) pc : Trace.uop option =
  match Image.fetch_word image pc with
  | None -> None
  | Some w ->
    (match Encoding.decode w with
     | None -> None
     | Some insn ->
       let fu =
         match Isa.kind insn with
         | Isa.Kmul -> Trace.FU_mul
         | Isa.Kdiv -> Trace.FU_div
         | Isa.Kload -> Trace.FU_load
         | Isa.Kstore -> Trace.FU_store
         | Isa.Kbranch | Isa.Kjump -> Trace.FU_branch
         | Isa.Kalu | Isa.Krmov | Isa.Knop -> Trace.FU_alu
         | Isa.Khalt -> Trace.FU_alu
       in
       (match insn with
        | Isa.Halt -> None (* wrong-path fetch stops at HALT *)
        | _ ->
          let ctrl =
            match insn with
            | Isa.Bez (_, off) | Isa.Bnz (_, off) ->
              Trace.Cond { taken = false; target = pc + (4 * off) }
            | Isa.J off ->
              Trace.Uncond
                { target = pc + (4 * off); is_call = false; is_ret = false }
            | Isa.Jal off ->
              Trace.Uncond
                { target = pc + (4 * off); is_call = true; is_ret = false }
            | Isa.Jr _ ->
              Trace.Uncond { target = -1; is_call = false; is_ret = true }
            | _ -> Trace.Not_ctrl
          in
          Some
            { Trace.pc;
              fu;
              srcs_dist =
                Array.of_list (List.filter (fun d -> d > 0) (Isa.sources insn));
              srcs_reg = [||];
              dest_reg = 0;
              has_dest = true;
              is_rmov = (match insn with Isa.Rmov _ -> true | _ -> false);
              is_nop = (match insn with Isa.Nop -> true | _ -> false);
              is_spadd = (match insn with Isa.Spadd _ -> true | _ -> false);
              mem_addr = 0;
              ctrl }))

(* A full run collects the source-distance histogram (Fig. 16); a
   streaming region or sampling pass does not. *)
let target =
  { Session.decode = static_uop;
    iss =
      (fun ~trace ~max_insns ?on_retire ?until image ->
         let s =
           Iss.Straight_iss.start
             ~config:{ Iss.Straight_iss.collect_trace = trace;
                       collect_dist = trace; max_insns }
             ?on_retire image
         in
         Iss.Straight_iss.run_session ?until s;
         Iss.Straight_iss.finish s);
    family = Session.Rp_family }

type result = Session.result = {
  stats : Ooo_common.Engine.stats;
  output : string;
  dist_histogram : int array;
}

type session = Session.t = {
  engine : Ooo_common.Engine.t;
  run_info : Trace.run;
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
