(* Normalized dynamic-instruction records.

   The functional simulators retire instructions in program order and emit
   one [uop] per retired instruction.  The cycle-accurate models replay this
   correct-path trace (oracle outcomes for branches and memory addresses)
   while fetching wrong-path instructions from the static image — see
   DESIGN.md "Substitutions" for the wrong-path modelling note. *)

type fu_class =
  | FU_alu          (* 1-cycle integer op (incl. RMOV and NOP slots) *)
  | FU_mul
  | FU_div
  | FU_branch       (* conditional branch / jump resolution unit *)
  | FU_load
  | FU_store

type ctrl =
  | Not_ctrl
  | Cond of { taken : bool; target : int }   (* target = taken destination *)
  | Uncond of { target : int; is_call : bool; is_ret : bool }

type uop = {
  pc : int;
  fu : fu_class;
  (* STRAIGHT dependence representation: source distances (0 = zero reg,
     i.e. no dependence).  Empty for RISC-V traces. *)
  srcs_dist : int array;
  (* RISC-V dependence representation: source logical registers (x0 = no
     dependence) and destination (0 = none).  Empty/0 for STRAIGHT traces. *)
  srcs_reg : int array;
  dest_reg : int;
  has_dest : bool;        (* STRAIGHT: always true; RISC-V: rd <> x0 *)
  is_rmov : bool;         (* instruction-mix bucket of Fig. 15 *)
  is_nop : bool;
  is_spadd : bool;        (* SPADD: serialized in-order at decode (III-B) *)
  mem_addr : int;         (* byte address for load/store; 0 otherwise *)
  ctrl : ctrl;
}

let kind_label u =
  match u.fu with
  | FU_load -> "LD"
  | FU_store -> "ST"
  | FU_branch -> "Jump+Branch"
  | FU_mul | FU_div -> "ALU"
  | FU_alu -> if u.is_rmov then "RMOV" else if u.is_nop then "NOP" else "ALU"

(* Canonical digest of a uop stream, used by the snapshot machinery to
   prove that a regenerated trace matches the one a checkpoint was taken
   against.  Every field participates, so any behavioural change to the
   ISS or the compilers changes the digest.  Fields are serialized as
   zigzag varints (self-delimiting; arrays length-prefixed), without
   allocating, and the digest is chained over blocks of [block] uops, so
   a long stream is digested in constant memory. *)
let block = 4096

type digester = {
  buf : Buffer.t;              (* serialization of the pending block *)
  mutable pending : int;       (* uops in [buf] *)
  mutable chain : string;      (* raw digest of the completed blocks *)
}

let digester () = { buf = Buffer.create 65536; pending = 0; chain = "" }

let rec add_varint b z =
  if z < 0x80 then Buffer.add_char b (Char.unsafe_chr z)
  else begin
    Buffer.add_char b (Char.unsafe_chr (z land 0x7f lor 0x80));
    add_varint b (z lsr 7)
  end

let add_int b n = add_varint b ((n lsl 1) lxor (n asr 62))
let add_bool b v = Buffer.add_char b (if v then '1' else '0')

let add_ints b a =
  add_int b (Array.length a);
  for i = 0 to Array.length a - 1 do add_int b a.(i) done

let fu_code = function
  | FU_alu -> 0 | FU_mul -> 1 | FU_div -> 2 | FU_branch -> 3
  | FU_load -> 4 | FU_store -> 5

let digest_add d u =
  let b = d.buf in
  add_int b u.pc;
  add_int b (fu_code u.fu);
  add_ints b u.srcs_dist;
  add_ints b u.srcs_reg;
  add_int b u.dest_reg;
  add_bool b u.has_dest;
  add_bool b u.is_rmov;
  add_bool b u.is_nop;
  add_bool b u.is_spadd;
  add_int b u.mem_addr;
  (match u.ctrl with
   | Not_ctrl -> Buffer.add_char b 'n'
   | Cond { taken; target } ->
     Buffer.add_char b 'c'; add_bool b taken; add_int b target
   | Uncond { target; is_call; is_ret } ->
     Buffer.add_char b 'u'; add_int b target; add_bool b is_call;
     add_bool b is_ret);
  d.pending <- d.pending + 1;
  if d.pending = block then begin
    d.chain <- Digest.string (d.chain ^ Buffer.contents b);
    Buffer.clear b;
    d.pending <- 0
  end

let digest_value d = Digest.to_hex (Digest.string (d.chain ^ Buffer.contents d.buf))

let digest (trace : uop array) : string =
  let d = digester () in
  Array.iter (digest_add d) trace;
  digest_value d

(* A program run.  A streamed run's record is filled in as the ISS
   advances: [retired] counts the retirements so far and [output] is
   final once the stream is exhausted. *)
type run = {
  mutable output : string;     (* MMIO console output *)
  mutable retired : int;       (* dynamic instruction count (HALT included) *)
  trace : uop array;           (* empty unless tracing was requested *)
  dist_histogram : int array;  (* source-distance counts, index = distance;
                                  only filled for STRAIGHT runs *)
}

(* A live functional run of either ISA, advanced on demand. *)
type source = {
  advance : int -> unit;
  is_halted : unit -> bool;
  count : unit -> int;
  console : unit -> string;
  histogram : int array;
}
