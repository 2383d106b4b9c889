(* Functional (instruction-set level) simulator for STRAIGHT.

   The architectural register file is modelled as the paper describes it: a
   key-value ring indexed by the register pointer (RP).  Instruction number
   [k] writes slot [k mod ring]; a source distance [d] reads slot
   [(k - d) mod ring]; distance 0 reads the hard-wired zero.  SP is the only
   overwritable register and is updated in order by SPADD.

   STRAIGHT offers precise interrupts (Section III-A): the architectural
   state is exactly {PC, SP, RP} plus the bounded window of the last
   [max_dist] register values (older values can never be referenced).
   [checkpoint]/[resume] implement that contract and are exercised by the
   test suite: interrupting a run at any instruction boundary and resuming
   from the captured state is indistinguishable from an uninterrupted run. *)

module Isa = Straight_isa.Isa
module Encoding = Straight_isa.Encoding
module Layout = Assembler.Layout
module Image = Assembler.Image

exception Exec_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

(* Ring size: any power of two strictly greater than the maximum referable
   distance works functionally (the microarchitectural MAX_RP sizing rule is
   checked by the cycle model, not here). *)
let ring = 2048
let ring_mask = ring - 1

type config = {
  max_insns : int;       (* abort runaway programs *)
  collect_trace : bool;  (* keep the full uop trace for the timing models *)
  collect_dist : bool;   (* fill the source-distance histogram (Fig. 16) *)
}

let default_config =
  { max_insns = 50_000_000; collect_trace = false; collect_dist = false }

(* Pre-decoded text section for fast dispatch. *)
let decode_text (image : Image.t) : Isa.resolved array =
  Array.mapi
    (fun i w ->
       match Encoding.decode w with
       | Some insn -> insn
       | None ->
         fail "illegal instruction word 0x%lx at 0x%x" w
           (image.Image.text_base + (4 * i)))
    image.Image.text

(* The statically known uop of the instruction [insn] at [pc]: a
   conditional branch resolved as [taken], an indirect jump's target
   unknown (-1), no memory address.  It is also the wrong-path decode. *)
let static_uop ~pc ~taken (insn : Isa.resolved) : Trace.uop =
  let fu =
    match Isa.kind insn with
    | Isa.Kmul -> Trace.FU_mul
    | Isa.Kdiv -> Trace.FU_div
    | Isa.Kload -> Trace.FU_load
    | Isa.Kstore -> Trace.FU_store
    | Isa.Kbranch | Isa.Kjump -> Trace.FU_branch
    | Isa.Kalu | Isa.Krmov | Isa.Knop | Isa.Khalt -> Trace.FU_alu
  in
  let ctrl =
    match insn with
    | Isa.Bez (_, off) | Isa.Bnz (_, off) ->
      Trace.Cond { taken; target = pc + (4 * off) }
    | Isa.J off ->
      Trace.Uncond { target = pc + (4 * off); is_call = false; is_ret = false }
    | Isa.Jal off ->
      Trace.Uncond { target = pc + (4 * off); is_call = true; is_ret = false }
    | Isa.Jr _ -> Trace.Uncond { target = -1; is_call = false; is_ret = true }
    | _ -> Trace.Not_ctrl
  in
  { Trace.pc;
    fu;
    srcs_dist = Array.of_list (List.filter (fun d -> d > 0) (Isa.sources insn));
    srcs_reg = [||];
    dest_reg = 0;
    has_dest = true;
    is_rmov = (match insn with Isa.Rmov _ -> true | _ -> false);
    is_nop = (match insn with Isa.Nop -> true | _ -> false);
    is_spadd = (match insn with Isa.Spadd _ -> true | _ -> false);
    mem_addr = 0;
    ctrl }

(* [static_uop] of every text slot as (fallthrough, taken) tables, the
   latter for taken conditional branches; built next to the decoded text
   only when retirements are [observed].  Uops are immutable, so
   retirements share these; only loads, stores and JR allocate a copy
   carrying their dynamic field. *)
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
  mutable sp : int32;
  mutable pc : int;
  mutable count : int;          (* retired instructions = architectural RP *)
  mutable halted : bool;
  config : config;
  mutable uops : Trace.uop list;
  dist_hist : int array;
  on_retire : (int -> Trace.uop -> unit) option;
      (* observer fed (index, uop) at every retirement, independent of
         trace collection — the functional-warming / sampling tap *)
}

(* [start ?config image] loads the image and returns a fresh session at the
   reset state (SP at the stack top, PC at the entry point). *)
let start ?(config = default_config) ?on_retire (image : Image.t) : session =
  let mem = Memory.create () in
  Memory.load_image mem image;
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
    regs = Array.make ring 0l;
    sp = Int32.of_int Layout.stack_top;
    pc = image.Image.entry;
    count = 0;
    halted = false;
    config;
    uops = [];
    dist_hist = Array.make (Isa.max_dist + 1) 0;
    on_retire }

(* The precise architectural state at an instruction boundary: PC, SP, RP,
   and the last [max_dist] register values (window.(i) is the value at
   distance i+1). *)
type arch_state = {
  a_pc : int;
  a_sp : int32;
  a_rp : int;
  a_window : int32 array;
}

(* [checkpoint s] captures the architectural state (e.g. to take an
   interrupt).  Memory is shared state and is not part of the register
   checkpoint, as in a conventional CPU. *)
let checkpoint (s : session) : arch_state =
  { a_pc = s.pc;
    a_sp = s.sp;
    a_rp = s.count;
    a_window =
      Array.init Isa.max_dist (fun i ->
          let d = i + 1 in
          if d > s.count then 0l else s.regs.((s.count - d) land ring_mask)) }

(* [resume ?config image mem state] rebuilds a session from a checkpoint:
   only {PC, SP, RP, window} are needed — the paper's precise-interrupt
   property. *)
let resume ?(config = default_config) ?on_retire (image : Image.t)
    (mem : Memory.t) (st : arch_state) : session =
  let code = decode_text image in
  let fallthrough, taken =
    static_uops image code
      ~observed:(config.collect_trace || on_retire <> None)
  in
  let s =
    { code;
      fallthrough;
      taken;
      text_base = image.Image.text_base;
      mem;
      regs = Array.make ring 0l;
      sp = st.a_sp;
      pc = st.a_pc;
      count = st.a_rp;
      halted = false;
      config;
      uops = [];
      dist_hist = Array.make (Isa.max_dist + 1) 0;
      on_retire }
  in
  Array.iteri
    (fun i v ->
       let d = i + 1 in
       if d <= st.a_rp then s.regs.((st.a_rp - d) land ring_mask) <- v)
    st.a_window;
  s

let read_src s d = if d = 0 then 0l else s.regs.((s.count - d) land ring_mask)

let record_dist s d =
  if s.config.collect_dist && d > 0 then s.dist_hist.(d) <- s.dist_hist.(d) + 1

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
  if idx < 0 || idx >= Array.length s.code then fail "PC out of text: 0x%x" s.pc;
  let insn = s.code.(idx) in
  let here = s.pc in
  let next = ref (here + 4) in
  let result = ref 0l in
  let mem_addr = ref 0 in
  let taken = ref false in
  let jr_target = ref 0 in
  (match insn with
   | Isa.Alu (op, a, b) ->
     record_dist s a; record_dist s b;
     result := Isa.eval_alu op (read_src s a) (read_src s b)
   | Isa.Alui (op, a, i) ->
     record_dist s a;
     result := Isa.eval_alu (Isa.alu_of_alui op) (read_src s a) i
   | Isa.Lui i -> result := Int32.shift_left i 12
   | Isa.Rmov a -> record_dist s a; result := read_src s a
   | Isa.Nop -> result := 0l
   | Isa.Ld (b, off) ->
     record_dist s b;
     let addr = Int32.to_int (read_src s b) + off in
     mem_addr := addr land 0xFFFFFFFF;
     result := Memory.read s.mem !mem_addr
   | Isa.St (v, b, off) ->
     record_dist s v; record_dist s b;
     let addr = Int32.to_int (read_src s b) + off in
     mem_addr := addr land 0xFFFFFFFF;
     let value = read_src s v in
     Memory.write s.mem !mem_addr value;
     (* The paper: "store value is returned in the current specification" *)
     result := value
   | Isa.Bez (a, off) ->
     record_dist s a;
     taken := read_src s a = 0l;
     if !taken then next := here + (4 * off)
   | Isa.Bnz (a, off) ->
     record_dist s a;
     taken := read_src s a <> 0l;
     if !taken then next := here + (4 * off)
   | Isa.J off -> next := here + (4 * off)
   | Isa.Jal off ->
     result := Int32.of_int (here + 4);
     next := here + (4 * off)
   | Isa.Jr a ->
     record_dist s a;
     jr_target := Int32.to_int (read_src s a) land 0xFFFFFFFF;
     next := !jr_target;
     result := Int32.of_int (here + 4)
   | Isa.Spadd i ->
     s.sp <- Int32.add s.sp (Int32.of_int i);
     result := s.sp
   | Isa.Halt -> s.halted <- true);
  s.regs.(s.count land ring_mask) <- !result;
  if s.config.collect_trace || s.on_retire <> None then begin
    let u =
      match insn with
      | Isa.Ld _ | Isa.St _ -> { s.fallthrough.(idx) with Trace.mem_addr = !mem_addr }
      | Isa.Jr _ ->
        { s.fallthrough.(idx) with
          Trace.ctrl =
            Trace.Uncond { target = !jr_target; is_call = false; is_ret = true } }
      | _ -> if !taken then s.taken.(idx) else s.fallthrough.(idx)
    in
    if s.config.collect_trace then s.uops <- u :: s.uops;
    match s.on_retire with Some f -> f s.count u | None -> ()
  end;
  s.count <- s.count + 1;
  s.pc <- !next

(* [run_session ?until s] executes until HALT (or until the retired count
   reaches [until]). *)
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
    histogram = s.dist_hist }

let finish (s : session) : Trace.run =
  { Trace.output = Memory.output s.mem;
    retired = s.count;
    trace = Array.of_list (List.rev s.uops);
    dist_histogram = s.dist_hist }

(* [run ?config image] executes the whole program. *)
let run ?(config = default_config) (image : Image.t) : Trace.run =
  let s = start ~config image in
  run_session s;
  finish s

(* Exit value of a halted session.  The startup stub is
   [_start: JAL f_main; HALT] and the epilogue places the return value
   immediately before JR, so once HALT retires the three youngest slots
   are HALT, JR, retval — main's result sits at distance 3. *)
let exit_value (s : session) : int32 =
  if s.count < 3 then 0l else s.regs.((s.count - 3) land ring_mask)

(* [run_with_interrupt ~at image] takes a precise interrupt after [at]
   retired instructions: the session is checkpointed, destroyed, and
   rebuilt from only {PC, SP, RP, window} + memory before continuing.
   The combined run must equal an uninterrupted one. *)
let run_with_interrupt ?(config = default_config) ~(at : int)
    (image : Image.t) : Trace.run =
  let s = start ~config image in
  run_session ~until:at s;
  if s.halted then finish s
  else begin
    let st = checkpoint s in
    let s' = resume ~config image s.mem st in
    run_session s';
    let r = finish s' in
    (* the console is in shared memory state; retired counts accumulate *)
    { r with Trace.retired = r.Trace.retired }
  end
