(* Functional simulator for the RV32IM baseline.

   Organized as a stepwise session (start / step / run_session / finish),
   mirroring Straight_iss, so the sampling machinery can drive both ISSes
   through one shape: run at full speed, observe every retirement through
   [on_retire], stop at instruction boundaries. *)

module Isa = Riscv_isa.Isa
module Encoding = Riscv_isa.Encoding
module Layout = Assembler.Layout
module Image = Assembler.Image

exception Exec_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

type config = { max_insns : int; collect_trace : bool }

let default_config = { max_insns = 50_000_000; collect_trace = false }

let decode_text (image : Image.t) : Isa.resolved array =
  Array.mapi
    (fun i w ->
       match Encoding.decode w with
       | Some insn -> insn
       | None ->
         fail "illegal instruction word 0x%lx at 0x%x" w
           (image.Image.text_base + (4 * i)))
    image.Image.text

(* The statically known uop of the instruction [insn] at [pc], as in
   Straight_iss: a conditional branch resolved as [taken], JALR's target
   unknown (-1), no memory address.  It is also the wrong-path decode. *)
let static_uop ~pc ~taken (insn : Isa.resolved) : Trace.uop =
  let fu =
    match Isa.kind insn with
    | Isa.Kmul -> Trace.FU_mul
    | Isa.Kdiv -> Trace.FU_div
    | Isa.Kload -> Trace.FU_load
    | Isa.Kstore -> Trace.FU_store
    | Isa.Kbranch | Isa.Kjump -> Trace.FU_branch
    | Isa.Kalu | Isa.Khalt -> Trace.FU_alu
  in
  let ctrl =
    match insn with
    | Isa.Branch (_, _, _, off) -> Trace.Cond { taken; target = pc + off }
    | Isa.Jal (rd, off) ->
      Trace.Uncond { target = pc + off; is_call = rd = 1; is_ret = false }
    | Isa.Jalr (rd, rs1, _) ->
      Trace.Uncond { target = -1; is_call = rd = 1; is_ret = rd = 0 && rs1 = 1 }
    | _ -> Trace.Not_ctrl
  in
  let dest = match Isa.dest insn with Some rd -> rd | None -> 0 in
  { Trace.pc;
    fu;
    srcs_dist = [||];
    srcs_reg = Array.of_list (List.filter (fun r -> r <> 0) (Isa.sources insn));
    dest_reg = dest;
    has_dest = dest <> 0;
    is_rmov = false;
    is_nop = false;
    is_spadd = false;
    mem_addr = 0;
    ctrl }

(* [static_uop] of every text slot as (fallthrough, taken) tables, built
   only when retirements are [observed]: retirements share these; only
   loads, stores and JALR allocate a copy carrying their dynamic
   field. *)
let static_uops (image : Image.t) (code : Isa.resolved array) ~observed =
  let table taken =
    Array.mapi
      (fun i insn -> static_uop ~pc:(image.Image.text_base + (4 * i)) ~taken insn)
      code
  in
  if observed then (table false, table true) else ([||], [||])

type session = {
  code : Isa.resolved array;
  fallthrough : Trace.uop array;  (* [static_uops] *)
  taken : Trace.uop array;
  text_base : int;
  mem : Memory.t;
  regs : int32 array;
  mutable pc : int;
  mutable count : int;
  mutable halted : bool;
  config : config;
  mutable uops : Trace.uop list;
  on_retire : (int -> Trace.uop -> unit) option;
}

let start ?(config = default_config) ?on_retire (image : Image.t) : session =
  let mem = Memory.create () in
  Memory.load_image mem image;
  let regs = Array.make 32 0l in
  regs.(2) <- Int32.of_int Layout.stack_top;
  let code = decode_text image in
  let fallthrough, taken =
    static_uops image code
      ~observed:(config.collect_trace || on_retire <> None)
  in
  { code;
    fallthrough;
    taken;
    text_base = image.Image.text_base;
    mem;
    regs;
    pc = image.Image.entry;
    count = 0;
    halted = false;
    config;
    uops = [];
    on_retire }

let set (regs : int32 array) rd v = if rd <> 0 then regs.(rd) <- v

(* [step s] executes one instruction. *)
let step (s : session) : unit =
  if s.count >= s.config.max_insns then
    Diag.error
      ~context:[ ("retired", string_of_int s.count);
                 ("max_insns", string_of_int s.config.max_insns);
                 ("pc", Printf.sprintf "0x%x" s.pc) ]
      Diag.Fuel_exhausted
      "instruction budget exceeded: %d instructions retired (max_insns=%d)"
      s.count s.config.max_insns;
  let idx = (s.pc - s.text_base) asr 2 in
  if idx < 0 || idx >= Array.length s.code then
    fail "PC out of text: 0x%x" s.pc;
  let insn = s.code.(idx) in
  let here = s.pc in
  let next = ref (here + 4) in
  let mem_addr = ref 0 in
  let taken = ref false in
  let jalr_target = ref 0 in
  let regs = s.regs in
  (match insn with
   | Isa.Lui (rd, i) -> set regs rd (Int32.shift_left i 12)
   | Isa.Auipc (rd, i) ->
     set regs rd (Int32.add (Int32.of_int here) (Int32.shift_left i 12))
   | Isa.Jal (rd, off) ->
     set regs rd (Int32.of_int (here + 4));
     next := here + off
   | Isa.Jalr (rd, rs1, imm) ->
     jalr_target := (Int32.to_int regs.(rs1) + imm) land 0xFFFFFFFE;
     set regs rd (Int32.of_int (here + 4));
     next := !jalr_target
   | Isa.Branch (cond, rs1, rs2, off) ->
     taken := Isa.eval_branch cond regs.(rs1) regs.(rs2);
     if !taken then next := here + off
   | Isa.Lw (rd, rs1, imm) ->
     let addr = (Int32.to_int regs.(rs1) + imm) land 0xFFFFFFFF in
     mem_addr := addr;
     set regs rd (Memory.read s.mem addr)
   | Isa.Sw (rs2, rs1, imm) ->
     let addr = (Int32.to_int regs.(rs1) + imm) land 0xFFFFFFFF in
     mem_addr := addr;
     Memory.write s.mem addr regs.(rs2)
   | Isa.Alui (op, rd, rs1, imm) ->
     set regs rd (Isa.eval_alu (Isa.alu_of_alui op) regs.(rs1) (Int32.of_int imm))
   | Isa.Alu (op, rd, rs1, rs2) -> set regs rd (Isa.eval_alu op regs.(rs1) regs.(rs2))
   | Isa.Ebreak -> s.halted <- true);
  if s.config.collect_trace || s.on_retire <> None then begin
    let u =
      match insn with
      | Isa.Lw _ | Isa.Sw _ -> { s.fallthrough.(idx) with Trace.mem_addr = !mem_addr }
      | Isa.Jalr (rd, rs1, _) ->
        { s.fallthrough.(idx) with
          Trace.ctrl =
            Trace.Uncond
              { target = !jalr_target; is_call = rd = 1;
                is_ret = rd = 0 && rs1 = 1 } }
      | _ -> if !taken then s.taken.(idx) else s.fallthrough.(idx)
    in
    if s.config.collect_trace then s.uops <- u :: s.uops;
    match s.on_retire with Some f -> f s.count u | None -> ()
  end;
  s.count <- s.count + 1;
  s.pc <- !next

let run_session ?(until = max_int) (s : session) : unit =
  while (not s.halted) && s.count < until do
    step s
  done

let session_memory (s : session) : Memory.t = s.mem

let source (s : session) : Trace.source =
  { Trace.advance = (fun n -> run_session ~until:n s);
    is_halted = (fun () -> s.halted);
    count = (fun () -> s.count);
    console = (fun () -> Memory.output s.mem);
    histogram = [||] }

let finish (s : session) : Trace.run =
  { Trace.output = Memory.output s.mem;
    retired = s.count;
    trace = Array.of_list (List.rev s.uops);
    dist_histogram = [||] }

(* Full outcome of a run: the trace plus the final architectural state,
   for differential comparison against the other executions of the same
   program (the fuzzer compares exit values and final memory). *)
type outcome = {
  run : Trace.run;
  mem : Memory.t;
  regs : int32 array;
}

let run_outcome ?(config = default_config) (image : Image.t) : outcome =
  let s = start ~config image in
  run_session s;
  { run = finish s; mem = s.mem; regs = s.regs }

let run ?config (image : Image.t) : Trace.run = (run_outcome ?config image).run

(* Exit value of a completed run: main's return register a0. *)
let exit_value (o : outcome) : int32 = o.regs.(10)
