(* Host-time probes around the calls the benchmark makes into the
   system's public functions. A probe is either off (the end-to-end
   runs: one clock read per timed call, nothing retained) or recording
   (the traced run: every call becomes a span kept in memory and written
   out once the benchmark ends). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns /. 1e9

type span = {
  name : string;
  start_ns : int;
  end_ns : int;
  depth : int;  (* nesting level: a span is the child of the open span one level up *)
}

type t = {
  recording : bool;
  mutable spans : span list;  (* newest first *)
  mutable depth : int;
}

let create ~recording = { recording; spans = []; depth = 0 }

(* Machine-speed calibration. Shared hosts change speed by a fifth and
   more over seconds (a fixed loop timed every half second on a 2-core
   box ranged over 2.4x), which no amount of repetition inside one run
   averages out. A fixed reference loop, timed just before and just
   after a measured call, gives the machine's speed around that call;
   the call's duration is rescaled to the speed at which the loop takes
   [nominal_ref_ns]. The loop allocates and hashes, like the simulator. *)
let reference_loop () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i land 1023) i;
    acc := !acc + Hashtbl.find h (i land 1023) + List.length (List.init 4 Fun.id)
  done;
  !acc

let reference_ns () =
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (reference_loop ()));
    best := min !best (now_ns () - t0)
  done;
  !best

let nominal_ref_ns = 2_000_000

(* [time t name f] runs [f], returning its result and its host duration
   in ns, rescaled to the nominal machine speed when [calibrate]; when
   recording, the call is also kept as a span (unscaled). Calls nested
   inside a calibrated one are not calibrated themselves, or the
   reference loop would run inside the outer call's time. *)
let time ?(calibrate = false) t name f =
  let depth = t.depth in
  let ref0 = if calibrate then reference_ns () else 0 in
  t.depth <- depth + 1;
  let start_ns = now_ns () in
  let r = f () in
  let end_ns = now_ns () in
  t.depth <- depth;
  if t.recording then t.spans <- { name; start_ns; end_ns; depth } :: t.spans;
  let ns = end_ns - start_ns in
  if not calibrate then (r, ns)
  else
    let speed = float_of_int (ref0 + reference_ns ()) /. float_of_int (2 * nominal_ref_ns) in
    (r, int_of_float (float_of_int ns /. speed))

(* Chrome trace-event JSON (one complete event per span, microseconds
   from the first span), loadable in Perfetto or chrome://tracing. *)
let write_chrome t ~file =
  let spans = List.rev t.spans in
  let origin = List.fold_left (fun acc s -> min acc s.start_ns) max_int spans in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}"
            s.name
            (float_of_int (s.start_ns - origin) /. 1e3)
            (float_of_int (s.end_ns - s.start_ns) /. 1e3)
            s.depth)
        spans;
      output_string oc "\n]}\n")
