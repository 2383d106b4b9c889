(* One simulation session over either ISA: the functional run, the
   lockstep checker and the cycle-level engine, stood up the same way for
   every target.  See session.mli for the contracts. *)

module Image = Assembler.Image
module Trace = Iss.Trace

type family = Rp_family | Rmt_family

type target = {
  decode : Image.t -> int -> Trace.uop option;
  iss :
    trace:bool -> max_insns:int ->
    ?on_retire:(int -> Trace.uop -> unit) -> ?until:int ->
    Image.t -> Trace.run;
  family : family;
}

type t = {
  engine : Engine.t;
  run_info : Trace.run;
}

type result = {
  stats : Engine.stats;
  output : string;
  dist_histogram : int array;
}

let default_max_insns = 50_000_000

let family_label = function
  | Rp_family -> "STRAIGHT (RP operand determination)"
  | Rmt_family -> "RV32IM (RMT register renaming)"

let check_model (tg : target) (p : Params.t) =
  let core =
    match p.Params.rename with
    | Params.Rp -> Rp_family
    | Params.Rmt _ | Params.Rmt_checkpoint _ -> Rmt_family
  in
  if core <> tg.family then
    Diag.error
      ~context:[ ("model", p.Params.name) ]
      Diag.Config_error "the target's code is %s, but model %s is a %s core"
      (family_label tg.family) p.Params.name (family_label core)

(* The ISS trace doubles as the golden model: unless [check] is false, a
   lockstep checker validates every commit against it. *)
let checker ~check ?max_dist (p : Params.t) trace =
  if check then
    Some (Checker.create ?max_dist ~rename:p.Params.rename ~trace ())
  else None

let create ~check ?max_dist ?warm tg p image trace =
  Engine.create p ~trace ~decode_static:(tg.decode image)
    ?checker:(checker ~check ?max_dist p trace) ?warm ()

let engine ?(check = true) ?max_dist ?warm tg p image trace =
  check_model tg p;
  create ~check ?max_dist ?warm tg p image trace

(* A region run fast-forwards functionally over the first [from]
   retirements — warming caches/predictors along the way unless [warm] is
   false — and keeps only the next [len] uops (to the end of the program
   when [len] is omitted).  Operands whose producers precede the region
   resolve as already committed (RP) or read the architectural file
   (RMT), exactly as they would mid-flight with the window drained. *)
let region tg ~max_insns ~from ?len ~warm p image =
  let stop = match len with None -> max_int | Some l -> from + l in
  let w = if warm then Some (Warm.create p) else None in
  let buf = ref [] in
  let on_retire idx u =
    if idx < from then
      (match w with Some w -> Warm.observe w u | None -> ())
    else if idx < stop then buf := u :: !buf
  in
  let r0 = tg.iss ~trace:false ~max_insns ~on_retire ~until:stop image in
  let r = { r0 with Trace.trace = Array.of_list (List.rev !buf) } in
  if Array.length r.Trace.trace = 0 then
    Diag.error Diag.Config_error
      "region start %d is past the end of the run (%d retired)" from
      r.Trace.retired;
  (r, w)

let start ?(max_insns = default_max_insns) ?(check = true) ?max_dist ?from
    ?len ?(warm = true) tg p image =
  check_model tg p;
  let run_info, w =
    match from, len with
    | None, None -> (tg.iss ~trace:true ~max_insns image, None)
    | _ ->
      region tg ~max_insns ~from:(Option.value from ~default:0) ?len ~warm p
        image
  in
  { engine = create ~check ?max_dist ?warm:w tg p image run_info.Trace.trace;
    run_info }

let resume ?(max_insns = default_max_insns) ?(check = true) ?max_dist tg p
    image reader =
  check_model tg p;
  let run_info = tg.iss ~trace:true ~max_insns image in
  let trace = run_info.Trace.trace in
  { engine =
      Engine.restore p ~trace ~decode_static:(tg.decode image)
        ?checker:(checker ~check ?max_dist p trace) reader;
    run_info }

let finish (s : t) : result =
  { stats = Engine.finish s.engine;
    output = s.run_info.Trace.output;
    dist_histogram = s.run_info.Trace.dist_histogram }

let run ?max_insns ?check ?max_dist tg p image : result =
  let s = start ?max_insns ?check ?max_dist tg p image in
  while not (Engine.finished s.engine) do
    Engine.step s.engine
  done;
  finish s
