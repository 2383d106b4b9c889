(* One simulation session over either ISA: the functional run, the
   lockstep checker and the cycle-level engine, stood up the same way for
   every target.  See session.mli for the contracts. *)

module Image = Assembler.Image
module Trace = Iss.Trace

type family = Rp_family | Rmt_family

type target = {
  decode : Image.t -> int -> Trace.uop option;
  iss :
    dist:bool -> max_insns:int -> ?on_retire:(int -> Trace.uop -> unit) ->
    Image.t -> Trace.source;
  family : family;
}

type t = {
  engine : Engine.t;
  run_info : Trace.run;
  stream : Uop_stream.t;
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

(* The ISS stream doubles as the golden model: unless [check] is false,
   a lockstep checker validates every commit against it. *)
let checker ~check ?max_dist (p : Params.t) golden =
  if check then Some (Checker.create ?max_dist ~rename:p.Params.rename ~golden ())
  else None

(* Wrong-path fetch decodes the same static instructions over and over
   (hundreds of thousands of times while a mispredicted branch waits
   behind a cache miss): decode every text slot once up front and share
   the uops, which are immutable. *)
let decode_static tg (image : Image.t) =
  let base = image.Image.text_base in
  let slots =
    Array.init (Array.length image.Image.text) (fun i ->
        tg.decode image (base + (4 * i)))
  in
  fun pc ->
    let i = (pc - base) asr 2 in
    if pc land 3 = 0 && i >= 0 && i < Array.length slots then slots.(i)
    else tg.decode image pc

let create ~check ?max_dist ?warm tg p image stream =
  Engine.create p ~stream ~decode_static:(decode_static tg image)
    ?checker:(checker ~check ?max_dist p stream) ?warm ()

let engine ?(check = true) ?max_dist ?warm tg p image trace =
  check_model tg p;
  create ~check ?max_dist ?warm tg p image (Uop_stream.of_array trace)

(* The ISS as a uop stream.  The first [from] retirements are
   fast-forwarded functionally — observed by [warm] when given — and the
   stream then holds the retirements from [from] up to [stop], produced
   as the engine pulls them.  Operands whose producers precede [from]
   resolve as already committed (RP) or read the architectural file
   (RMT), exactly as they would mid-flight with the window drained. *)
let open_stream tg ~max_insns ?(from = 0) ?(stop = max_int) ?warm ~digest
    ~dist image =
  let stream = Uop_stream.create ~digest () in
  let on_retire idx u =
    if idx >= from then Uop_stream.push stream u
    else match warm with Some w -> Warm.observe w u | None -> ()
  in
  let src = tg.iss ~dist ~max_insns ~on_retire image in
  src.Trace.advance from;
  let run_info =
    { Trace.output = ""; retired = src.Trace.count (); trace = [||];
      dist_histogram = src.Trace.histogram }
  in
  Uop_stream.attach ~stop stream run_info src;
  (stream, run_info)

(* A whole run collects the STRAIGHT distance histogram (Fig. 16); a
   region does not, and warms over its fast-forwarded prefix unless
   [warm] is false. *)
let start ?(max_insns = default_max_insns) ?(check = true) ?max_dist ?from
    ?len ?(warm = true) ?(digest = false) tg p image =
  check_model tg p;
  let whole = from = None && len = None in
  let from = Option.value from ~default:0 in
  let stop = match len with None -> max_int | Some l -> from + l in
  let w = if warm && not whole then Some (Warm.create p) else None in
  let stream, run_info =
    open_stream tg ~max_insns ~from ~stop ?warm:w ~digest ~dist:whole image
  in
  if not (Uop_stream.available stream 0) then
    Diag.error Diag.Config_error
      "region start %d is past the end of the run (%d retired)" from
      run_info.Trace.retired;
  { engine = create ~check ?max_dist ?warm:w tg p image stream; run_info;
    stream }

let resume ?(max_insns = default_max_insns) ?(check = true) ?max_dist tg p
    image reader =
  check_model tg p;
  let stream, run_info =
    open_stream tg ~max_insns ~digest:true ~dist:true image
  in
  { engine =
      Engine.restore p ~stream ~decode_static:(decode_static tg image)
        ?checker:(checker ~check ?max_dist p stream) reader;
    run_info; stream }

let trace ?(max_insns = default_max_insns) tg image =
  let acc = ref [] in
  let src =
    tg.iss ~dist:false ~max_insns ~on_retire:(fun _ u -> acc := u :: !acc)
      image
  in
  src.Trace.advance max_int;
  Array.of_list (List.rev !acc)

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
