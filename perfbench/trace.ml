(** In-memory span recorder for the traced run.

    A span is one timed call into a layer: its name, its parent span, the
    item it belongs to, its start and end on the monotonic clock and the
    minor words allocated while it ran.  Spans stay in memory until the run
    ends; {!self} then folds them into per-name self time (duration minus
    the part covered by child spans) and self allocation.  With no tracer
    ([None]) a span is a plain call. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for a root span *)
  item : int;
  host : int;  (** the {!Hostref} sample taken before the span's work *)
  t0 : int64;  (** ns, monotonic *)
  t1 : int64;
  words : float;  (** minor words allocated, children included *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : int list;
  mutable item : int;
  mutable host : int;
}

let create () = { spans = []; next = 0; stack = []; item = -1; host = -1 }

let set_item (tr : t option) (i : int) =
  match tr with Some tr -> tr.item <- i | None -> ()

let set_host (tr : t option) (h : int) =
  match tr with Some tr -> tr.host <- h | None -> ()

let span (tr : t option) (name : string) (f : unit -> 'a) : 'a =
  match tr with
  | None -> f ()
  | Some tr ->
    let id = tr.next in
    tr.next <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let w0 = Gc.minor_words () in
    let t0 = Monotonic_clock.now () in
    let finish () =
      let t1 = Monotonic_clock.now () in
      let words = Gc.minor_words () -. w0 in
      tr.stack <- List.tl tr.stack;
      tr.spans <- { name; id; parent; item = tr.item; host = tr.host; t0; t1; words } :: tr.spans
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

let dur_s (s : span) = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

(** [scale h] turns a time measured next to host sample [h] into the time
    on the reference host (see {!Hostref.scale}). *)
let scaled_s ~scale (s : span) = dur_s s *. scale s.host

type self = { self_s : float; self_words : float; calls : int }

(** Per span name: summed self time (scaled to the reference host), self
    minor words and call count. *)
let self ~scale (tr : t) : (string, self) Hashtbl.t =
  let dur_s = scaled_s ~scale in
  let child : (int, float * float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let d, w = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (d +. dur_s s, w +. s.words)
      end)
    tr.spans;
  let out = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let cd, cw = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt child s.id) in
      let prev =
        Option.value ~default:{ self_s = 0.0; self_words = 0.0; calls = 0 }
          (Hashtbl.find_opt out s.name)
      in
      Hashtbl.replace out s.name
        {
          self_s = prev.self_s +. dur_s s -. cd;
          self_words = prev.self_words +. s.words -. cw;
          calls = prev.calls + 1;
        })
    tr.spans;
  out

(** Write every span as one JSON object per line, oldest first, with its
    measured duration and the factor that scales it to the reference host. *)
let dump ~scale (tr : t) (path : string) : unit =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"id\":%d,\"parent\":%d,\"item\":%d,\"start_ns\":%Ld,\"dur_ns\":%Ld,\"scale\":%.6g,\"minor_words\":%.0f}\n"
        s.name s.id s.parent s.item s.t0 (Int64.sub s.t1 s.t0) (scale s.host) s.words)
    (List.rev tr.spans);
  close_out oc
