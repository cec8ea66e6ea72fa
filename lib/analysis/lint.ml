(** [light lint]: a ranked static race report over the analysis results.

    The race set is {!Analyze.t.races} — conflicting site pairs that
    survived every elision argument (sharing, escape, init-phase, MHP
    ordering, must-held locksets).  Lint turns each pair into a finding
    with the {e evidence} for why it is a race:

    - an MHP witness: one overlapping thread-context pair per side
      ({!Mhp.witness}), showing the spawn windows that let both sites run
      concurrently;
    - lockset evidence: the Eraser candidate-set verdict for the
      partition ({!Lockset.discipline}) — which access emptied C(v), or
      that the sites run bare;
    - a severity score: write/write pairs outrank write/read, lock-free
      pairs outrank partially-locked ones, multi-instance witnesses and
      global targets add weight. *)

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

type severity = High | Medium | Low

let severity_to_string = function High -> "high" | Medium -> "medium" | Low -> "low"

(** Two classes of findings:

    - [Race]: a pair from {!Analyze.t.races} — conflicting, concurrent,
      and no common lock.  Replay-relevant and a data-race candidate.
    - [Atomicity]: a conflicting pair that {e is} covered by a common
      must-held lock but still may run in parallel: the lock serializes
      the two critical sections without ordering them.  Harmless to
      recording (the ghost dependences pin the order) but the classic
      shape of check-then-act defects that lockset tools are blind to —
      Lucene-481's reader close racing a searcher is exactly such a
      pair. *)
type finding_class = Race | Atomicity

let class_to_string = function Race -> "race" | Atomicity -> "atomicity"

type finding = {
  rank : int;  (** 1-based position in the severity-sorted report *)
  cls : finding_class;
  on : Sites.target;
  s1 : Sites.info;
  s2 : Sites.info;
  score : int;
  severity : severity;
  witness : (Mhp.ctx * Mhp.ctx) option;  (** overlapping context pair *)
  lockset : Lockset.discipline;  (** partition-level Eraser verdict *)
}

let lock_str (a : Analyze.t) (l : Sites.lock) : string =
  Analyze.lock_display a.Analyze.pointsto a.Analyze.program l

(* Severity: how likely the pair is a bug worth a look, and how harsh its
   failure mode.  Write/write pairs corrupt data rather than read stale
   values; pairs with no lock anywhere run bare; a multi-instance witness
   means every added thread widens the exposure; globals are
   program-visible state.  The explorer's racy-first ranking uses the
   same race set, so lint's ordering matches what schedule exploration
   perturbs first. *)
let score_pair (s1 : Sites.info) (s2 : Sites.info) witness on : int =
  let ww = s1.Sites.kind = Sites.KWrite && s2.Sites.kind = Sites.KWrite in
  let bare = s1.Sites.locks = [] && s2.Sites.locks = [] in
  let multi =
    match witness with
    | Some (c1, c2) -> c1.Mhp.c_multi || c2.Mhp.c_multi
    | None -> false
  in
  let global = match on with Sites.TGlobal _ -> true | _ -> false in
  (if ww then 3 else 0) + (if bare then 2 else 0) + (if multi then 1 else 0)
  + if global then 1 else 0

let severity_of_score (n : int) : severity =
  if n >= 5 then High else if n >= 3 then Medium else Low

let findings (a : Analyze.t) : finding list =
  let mk cls (on : Sites.target) (s1 : Sites.info) (s2 : Sites.info) =
    let witness = Mhp.witness a.Analyze.mhp s1.Sites.sid s2.Sites.sid in
    let lockset =
      match Analyze.TM.find_opt on a.Analyze.targets with
      | Some tc -> Lockset.discipline a.Analyze.mhp tc.Analyze.sites
      | None -> Lockset.DSequential
    in
    let score =
      match cls with
      | Race -> score_pair s1 s2 witness on
      (* serialized pairs can't corrupt data; they rank below every race *)
      | Atomicity ->
        1
        + (if s1.Sites.kind = Sites.KWrite && s2.Sites.kind = Sites.KWrite then 1 else 0)
        + ( match witness with
          | Some (c1, c2) when c1.Mhp.c_multi || c2.Mhp.c_multi -> 1
          | _ -> 0 )
    in
    (score, { rank = 0; cls; on; s1; s2; score;
              severity = severity_of_score score; witness; lockset })
  in
  let races =
    List.map (fun (r : Analyze.race_pair) -> mk Race r.on r.t1 r.t2) a.Analyze.races
  in
  (* lock-serialized but unordered conflicting pairs: the common lock hides
     them from the race set, MHP says the sections still interleave — the
     check-then-act shape.  One finding per site pair, as with races. *)
  let atomicity =
    let seen = Hashtbl.create 32 in
    List.iter
      (fun (r : Analyze.race_pair) ->
        Hashtbl.replace seen
          (min r.t1.Sites.sid r.t2.Sites.sid, max r.t1.Sites.sid r.t2.Sites.sid)
          ())
      a.Analyze.races;
    Analyze.TM.fold
      (fun on (tc : Analyze.target_class) acc ->
        if not tc.Analyze.shared then acc
        else
          let rec pairs = function
            | [] -> []
            | (x : Sites.info) :: rest ->
              List.filter_map
                (fun (y : Sites.info) ->
                  let key = (min x.Sites.sid y.Sites.sid, max x.Sites.sid y.Sites.sid) in
                  if Hashtbl.mem seen key then None
                  else if
                    (x.Sites.kind = Sites.KWrite || y.Sites.kind = Sites.KWrite)
                    && Mhp.may_parallel a.Analyze.mhp x.Sites.sid y.Sites.sid
                    && Lockset.common_lock x y <> None
                  then begin
                    Hashtbl.replace seen key ();
                    Some (mk Atomicity on x y)
                  end
                  else None)
                (x :: rest)
              @ pairs rest
          in
          pairs tc.Analyze.sites @ acc)
      a.Analyze.targets []
  in
  let sorted =
    List.sort
      (fun (sa, fa) (sb, fb) ->
        match compare (sb : int) sa with
        | 0 -> compare (fa.s1.Sites.sid, fa.s2.Sites.sid) (fb.s1.Sites.sid, fb.s2.Sites.sid)
        | c -> c)
      (races @ atomicity)
  in
  List.mapi (fun i (_, f) -> { f with rank = i + 1 }) sorted

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let witness_str (f : finding) : string =
  match f.witness with
  | Some (c1, c2) ->
    Format.asprintf "%a || %a" Mhp.pp_ctx c1 Mhp.pp_ctx c2
  | None -> "unrefined (no MHP witness computed)"

let lockset_str (a : Analyze.t) (f : finding) : string =
  match f.lockset with
  | Lockset.DSequential -> "partition is phase-ordered"
  | Lockset.DReadShared -> "partition is read-shared"
  | Lockset.DConsistent ls ->
    let ls = String.concat ", " (List.map (lock_str a) ls) in
    (match f.cls with
    | Atomicity ->
      Printf.sprintf
        "sections serialized by {%s} but unordered: check-then-act exposure" ls
    | Race -> Printf.sprintf "partition consistently holds {%s}" ls)
  | Lockset.DBroken (s, before) ->
    Printf.sprintf "C(v) emptied by line %d (%s %s): held {%s} before it"
      s.Sites.line
      (match s.Sites.kind with Sites.KWrite -> "write" | Sites.KRead -> "read")
      (Sites.target_to_string s.Sites.target)
      (String.concat ", " (List.map (lock_str a) before))

let site_str (s : Sites.info) : string =
  Printf.sprintf "line %d %s of %s in %s%s" s.Sites.line
    (match s.Sites.kind with Sites.KWrite -> "write" | Sites.KRead -> "read")
    (Sites.target_to_string s.Sites.target)
    (match s.Sites.fn with Some f -> f | None -> "main")
    (match s.Sites.locks with
    | [] -> ""
    | _ -> Printf.sprintf " [%d lock(s) held]" (List.length s.Sites.locks))

let report (a : Analyze.t) : string =
  let fs = findings a in
  let races = List.length (List.filter (fun f -> f.cls = Race) fs) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "lint: %d finding(s) after elision — %d race pair(s), %d atomicity \
        suspect(s) (%s)\n"
       (List.length fs) races
       (List.length fs - races)
       (Analyze.summary a));
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "\n#%d [%s %s, score %d] %s\n" f.rank
           (class_to_string f.cls)
           (severity_to_string f.severity) f.score (Sites.target_to_string f.on));
      Buffer.add_string buf (Printf.sprintf "    %s\n" (site_str f.s1));
      Buffer.add_string buf (Printf.sprintf "    %s\n" (site_str f.s2));
      Buffer.add_string buf (Printf.sprintf "    mhp:     %s\n" (witness_str f));
      Buffer.add_string buf (Printf.sprintf "    lockset: %s\n" (lockset_str a f)))
    fs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON encoders                                                       *)
(* ------------------------------------------------------------------ *)

let site_json (a : Analyze.t) (s : Sites.info) : Json.t =
  Json.Obj
    [
      ("sid", Json.Int s.Sites.sid);
      ("line", Json.Int s.Sites.line);
      ("kind", Json.Str (match s.Sites.kind with Sites.KWrite -> "write" | _ -> "read"));
      ("target", Json.Str (Sites.target_to_string s.Sites.target));
      ("fn", match s.Sites.fn with Some f -> Json.Str f | None -> Json.Null);
      ("locks", Json.List (List.map (fun l -> Json.Str (lock_str a l)) s.Sites.locks));
    ]

let finding_json (a : Analyze.t) (f : finding) : Json.t =
  Json.Obj
    [
      ("rank", Json.Int f.rank);
      ("class", Json.Str (class_to_string f.cls));
      ("target", Json.Str (Sites.target_to_string f.on));
      ("severity", Json.Str (severity_to_string f.severity));
      ("score", Json.Int f.score);
      ("s1", site_json a f.s1);
      ("s2", site_json a f.s2);
      ("mhp_witness", Json.Str (witness_str f));
      ("lockset", Json.Str (lockset_str a f));
    ]

let report_json (a : Analyze.t) : Json.t =
  let fs = findings a in
  let count sev = List.length (List.filter (fun f -> f.severity = sev) fs) in
  Json.Obj
    [
      ("races", Json.List (List.map (finding_json a) fs));
      ( "summary",
        Json.Obj
          [
            ("total", Json.Int (List.length fs));
            ( "race_pairs",
              Json.Int (List.length (List.filter (fun f -> f.cls = Race) fs)) );
            ( "atomicity_suspects",
              Json.Int (List.length (List.filter (fun f -> f.cls = Atomicity) fs)) );
            ("high", Json.Int (count High));
            ("medium", Json.Int (count Medium));
            ("low", Json.Int (count Low));
          ] );
    ]

(** [light analyze --json]: the full classification (partitions, guards,
    elision counts) plus the lint race list, sharing its encoders. *)
let analysis_json (a : Analyze.t) ~(instrumented : int) ~(guarded : int)
    ~(total_sites : int) : Json.t =
  let target_json (tc : Analyze.target_class) : Json.t =
    Json.Obj
      [
        ("target", Json.Str (Sites.target_to_string tc.Analyze.target));
        ("shared", Json.Bool tc.Analyze.shared);
        ( "guarded_by",
          match tc.Analyze.guarded_by with Some l -> Json.Str l | None -> Json.Null );
        ("covered", Json.Bool tc.Analyze.covered);
        ( "active_sids",
          Json.List
            (List.map
               (fun i -> Json.Int i)
               (Analyze.ISet.elements tc.Analyze.active)) );
        ("sites", Json.List (List.map (site_json a) tc.Analyze.sites));
      ]
  in
  let targets =
    Analyze.TM.fold (fun _ tc acc -> target_json tc :: acc) a.Analyze.targets []
  in
  Json.Obj
    [
      ( "summary",
        Json.Obj
          [
            ("precision", Json.Str (match a.Analyze.precision with
                                    | Analyze.Sharp -> "sharp" | Analyze.Coarse -> "coarse"));
            ("refined", Json.Bool a.Analyze.refined);
            ("total_access_sites", Json.Int total_sites);
            ("instrumented_sites", Json.Int instrumented);
            ("guarded_sites", Json.Int guarded);
            ("sequential_sids", Json.Int (Analyze.sequential_sids a));
            ("race_pairs", Json.Int (List.length a.Analyze.races));
          ] );
      ("targets", Json.List (List.rev targets));
      ("races", Json.List (List.map (finding_json a) (findings a)));
    ]
