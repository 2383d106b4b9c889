(* Measurement plumbing shared by the workloads: clocks, allocation
   counter, percentiles, the span recorder of traced runs, and the
   metric list a run prints at the end.

   Spans are recorded only around calls into the toolchain's public
   functions, from the benchmark's own code; nothing inside the program
   under test is instrumented. *)

let now () = Unix.gettimeofday ()

(* CPU time (user + system) of this process, in seconds.  Compiles and
   simulations are timed with it: time the host hands to other tenants
   while this process waits drops out. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated so far by this domain: minor allocations plus direct
   major allocations, minus the promoted words counted in both. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Linear-interpolation percentile ([p] in 0..100), the same rule as
   numpy's default and Python's [statistics.quantiles(method=
   "inclusive")]; [nan] on no samples. *)
let percentile (xs : float list) (p : float) : float =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

(* Peak resident set size of a process in MiB, from /proc; [None] when
   the process is gone. *)
let peak_rss_mb (pid : string) : float option =
  match In_channel.with_open_text ("/proc/" ^ pid ^ "/status")
          In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
               Some (float_of_int kb /. 1024.0))
         | _ -> None)
      (String.split_on_char '\n' text)

(* ---------- spans ---------- *)

type span = {
  name : string;   (* layer name, e.g. "frontend" *)
  id : string;     (* the program, config or request the span serves *)
  parent : int;    (* index of the enclosing span, -1 for a root *)
  start : float;
  stop : float;
}

let tracing = ref false
let lock = Mutex.create ()
let table : (int, span) Hashtbl.t = Hashtbl.create 4096
let next = ref 0

(* The enclosing span of the calling code.  Only the single-threaded
   in-process workloads nest through it; the serve loop's connection
   threads pass parents explicitly. *)
let stack : int list ref = ref []

let reset () =
  Hashtbl.reset table;
  next := 0;
  stack := []

(* A span index handed out before the span ends, so children can name
   their parent while it is still open. *)
let fresh () : int =
  Mutex.lock lock;
  let i = !next in
  incr next;
  Mutex.unlock lock;
  i

let file idx (s : span) =
  if !tracing then begin
    Mutex.lock lock;
    Hashtbl.replace table idx s;
    Mutex.unlock lock
  end

(* [span ?id name f] runs [f] inside a span when tracing, and just runs
   it otherwise. *)
let span ?(id = "") name f =
  if not !tracing then f ()
  else begin
    let idx = fresh () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := idx :: !stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
          stack := List.tl !stack;
          file idx { name; id; parent; start; stop = now () })
      f
  end

let spans () : (int * span) list =
  Hashtbl.fold (fun i s acc -> (i, s) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let dur (s : span) = s.stop -. s.start

(* Self time per layer name, in seconds: each span's duration minus the
   part its children cover, summed over the spans of that name. *)
let self_times () : (string * float) list =
  let all = spans () in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (_, s) ->
       if s.parent >= 0 then
         Hashtbl.replace child s.parent
           (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    all;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (i, s) ->
       let self =
         dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child i)
       in
       Hashtbl.replace acc s.name
         (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc s.name)))
    all;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* One JSON object per span, times in seconds from [t0]. *)
let write_spans ~t0 (path : string) =
  let module J = Ooo_common.Stats.Json in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (i, s) ->
           output_string oc
             (J.to_string ~indent:false
                (J.Obj
                   [ ("span", J.Int i);
                     ("name", J.Str s.name);
                     ("id", J.Str s.id);
                     ("parent", J.Int s.parent);
                     ("start", J.Float (s.start -. t0));
                     ("stop", J.Float (s.stop -. t0)) ]));
           output_char oc '\n')
        (spans ()))
