(* The superscalar RV32IM baseline pipeline: the shared engine instantiated
   with RAM-based RMT renaming, an 8-stage front end, and ROB-walk
   misprediction recovery (Section V-A). *)

module Isa = Riscv_isa.Isa
module Encoding = Riscv_isa.Encoding
module Image = Assembler.Image
module Trace = Iss.Trace
module Session = Ooo_common.Session

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
         | Isa.Kalu -> Trace.FU_alu
         | Isa.Khalt -> Trace.FU_alu
       in
       (match insn with
        | Isa.Ebreak -> None
        | _ ->
          let ctrl =
            match insn with
            | Isa.Branch (_, _, _, off) ->
              Trace.Cond { taken = false; target = pc + off }
            | Isa.Jal (rd, off) ->
              Trace.Uncond
                { target = pc + off; is_call = rd = 1; is_ret = false }
            | Isa.Jalr (rd, rs1, _) ->
              Trace.Uncond
                { target = -1; is_call = rd = 1; is_ret = rd = 0 && rs1 = 1 }
            | _ -> Trace.Not_ctrl
          in
          let dest = match Isa.dest insn with Some r -> r | None -> 0 in
          Some
            { Trace.pc;
              fu;
              srcs_dist = [||];
              srcs_reg =
                Array.of_list (List.filter (fun r -> r <> 0) (Isa.sources insn));
              dest_reg = dest;
              has_dest = dest <> 0;
              is_rmov = false;
              is_nop = false;
              is_spadd = false;
              mem_addr = 0;
              ctrl }))

let target =
  { Session.decode = static_uop;
    iss =
      (fun ~trace ~max_insns ?on_retire ?until image ->
         let s =
           Iss.Riscv_iss.start
             ~config:{ Iss.Riscv_iss.collect_trace = trace; max_insns }
             ?on_retire image
         in
         Iss.Riscv_iss.run_session ?until s;
         Iss.Riscv_iss.finish s);
    family = Session.Rmt_family }

type result = Session.result = {
  stats : Ooo_common.Engine.stats;
  output : string;
  dist_histogram : int array;
}

type session = Session.t = {
  engine : Ooo_common.Engine.t;
  run_info : Trace.run;
}

let start ?max_insns ?check params image =
  Session.start ?max_insns ?check target params image

let start_region ?max_insns ?check ?warm ~from ?len params image =
  Session.start ?max_insns ?check ?warm ~from ?len target params image

let finish = Session.finish

let run ?max_insns ?check params image =
  Session.run ?max_insns ?check target params image
