(** Reference replay driver: the hashtable-keyed gate the counter-indexed
    {!Light_core.Replayer.driver} replaced, kept in [test/] as its
    differential oracle.  Every event is looked up by its [(tid, c)] pair in
    [rank_of], executed events live in a hashtable, the interval check
    scans a per-thread list, and accesses arrive through [observe].

    {!shadow} runs both drivers over one execution — the production driver
    steers, the reference shadows it — and compares every gate consult,
    write-suppression check, wakeup choice, syscall override and progress
    count. *)

open Runtime
open Light_core

type t = { hooks : Interp.hooks; progress : unit -> int }

let driver ?(suppress = true) ~(intervals : Constraints.interval list)
    (sch : Replayer.schedule) ~(plan : Plan.t) : t =
  let thread_cs : (int, int array) Hashtbl.t = Hashtbl.create 16 in
  let tmp : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (t, c) ->
      Hashtbl.replace tmp t (c :: Option.value ~default:[] (Hashtbl.find_opt tmp t)))
    sch.order;
  Hashtbl.iter (fun t cs -> Hashtbl.replace thread_cs t (Array.of_list (List.sort_uniq compare cs))) tmp;
  let thread_intervals : (int, (Loc.t * int * int) list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (iv : Constraints.interval) ->
      let t = fst iv.start_e in
      let prev = Option.value ~default:[] (Hashtbl.find_opt thread_intervals t) in
      Hashtbl.replace thread_intervals t ((iv.iv_loc, snd iv.start_e, snd iv.end_e) :: prev))
    intervals;
  let in_interval t loc c =
    match Hashtbl.find_opt thread_intervals t with
    | None -> false
    | Some ivs -> List.exists (fun (l, lo, hi) -> lo <= c && c <= hi && Loc.equal l loc) ivs
  in
  (* rank of the last constrained event of thread t with counter < c *)
  let pred_rank t c =
    match Hashtbl.find_opt thread_cs t with
    | None -> None
    | Some arr ->
      let lo = ref 0 and hi = ref (Array.length arr - 1) and best = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if arr.(mid) < c then (best := mid; lo := mid + 1) else hi := mid - 1
      done;
      if !best < 0 then None else Hashtbl.find_opt sch.rank_of (t, arr.(!best))
  in
  let next_rank = ref 0 in
  let executed = Hashtbl.create 1024 in
  let advance () =
    while
      !next_rank < Array.length sch.order && Hashtbl.mem executed sch.order.(!next_rank)
    do
      incr next_rank
    done
  in
  let last_notify = ref None in
  let gate (pre : Event.pre) =
    match Hashtbl.find_opt sch.rank_of (pre.tid, pre.c) with
    | Some k -> k = !next_rank
    | None -> ( match pred_rank pre.tid pre.c with None -> true | Some kp -> !next_rank > kp)
  in
  let observe (ev : Event.t) =
    match ev with
    | Event.Access (a, _) ->
      let e = (a.tid, a.c) in
      if Hashtbl.mem sch.rank_of e then begin
        Hashtbl.replace executed e ();
        advance ()
      end;
      if a.ghost = Event.NotifyWrite then last_notify := Some e
    | _ -> ()
  in
  let suppress_write (pre : Event.pre) =
    suppress
    && pre.ghost = Event.NotGhost
    && (not (Hashtbl.mem sch.rank_of (pre.tid, pre.c)))
    && (not (in_interval pre.tid pre.loc pre.c))
    && not (plan.guarded_site pre.site)
  in
  let choose_wakeup ~lock:_ ~waiters =
    match !last_notify with
    | Some n -> (
      match Hashtbl.find_opt sch.notify_pairs n with
      | Some w when List.mem w waiters -> w
      | _ -> List.hd waiters)
    | None -> List.hd waiters
  in
  {
    hooks =
      {
        Interp.default_hooks with
        gate = Some gate;
        observe = Some observe;
        syscall_override =
          Some (fun ~tid ~idx ~name:_ -> Hashtbl.find_opt sch.syscall_values (tid, idx));
        choose_wakeup = Some choose_wakeup;
        suppress_write = Some suppress_write;
      };
    progress = (fun () -> Hashtbl.length executed);
  }

(** Hooks that drive a run with the production driver while the reference
    shadows it, plus a function returning the disagreements seen so far
    (the first few, oldest first).  The production driver's verdict is the
    one the run follows. *)
let shadow ?suppress ~intervals (sch : Replayer.schedule) ~(plan : Plan.t) :
    Interp.hooks * (unit -> string list) =
  let d = Replayer.driver ?suppress sch ~plan in
  let r = driver ?suppress ~intervals sch ~plan in
  let errs = ref [] and n_errs = ref 0 in
  let note fmt =
    Printf.ksprintf
      (fun s ->
        if !n_errs < 8 then errs := s :: !errs;
        incr n_errs)
      fmt
  in
  let get = function Some f -> f | None -> assert false in
  let progress what =
    let a = d.progress () and b = r.progress () in
    if a <> b then note "%s: progress %d, reference %d" what a b
  in
  let verdict what (pre : Event.pre) a b =
    if a <> b then note "%s (%d,%d): %b, reference %b" what pre.tid pre.c a b;
    progress what;
    a
  in
  let gate pre = verdict "gate" pre (get d.hooks.gate pre) (get r.hooks.gate pre) in
  let suppress_write pre =
    verdict "suppress_write" pre (get d.hooks.suppress_write pre)
      (get r.hooks.suppress_write pre)
  in
  let choose_wakeup ~lock ~waiters =
    let a = get d.hooks.choose_wakeup ~lock ~waiters
    and b = get r.hooks.choose_wakeup ~lock ~waiters in
    if a <> b then note "choose_wakeup: %d, reference %d" a b;
    a
  in
  let syscall_override ~tid ~idx ~name =
    let a = get d.hooks.syscall_override ~tid ~idx ~name
    and b = get r.hooks.syscall_override ~tid ~idx ~name in
    if a <> b then note "syscall_override (%d,%d) differs" tid idx;
    a
  in
  (* [observe] fires after [on_shared] on every access: compare there *)
  let observe ev =
    get r.hooks.observe ev;
    match ev with Event.Access _ -> progress "access" | _ -> ()
  in
  ( {
      Interp.gate = Some gate;
      observe = Some observe;
      on_shared = d.hooks.on_shared;
      syscall_override = Some syscall_override;
      choose_wakeup = Some choose_wakeup;
      suppress_write = Some suppress_write;
      on_branch = None;
    },
    fun () -> List.rev !errs )
