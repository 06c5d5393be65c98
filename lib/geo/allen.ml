type relation =
  | Before
  | Meets
  | Overlaps
  | Starts
  | During
  | Finishes
  | Equal
  | After
  | Met_by
  | Overlapped_by
  | Started_by
  | Contains
  | Finished_by

(* Classify from the four endpoint comparisons.  Works for any totally
   ordered endpoint representation; we instantiate with ints. *)
let classify ~ss ~se ~es ~ee =
  (* ss = compare a.start b.start; se = compare a.start b.stop;
     es = compare a.stop b.start; ee = compare a.stop b.stop *)
  if ss = 0 && ee = 0 then Equal
  else if es < 0 then Before
  else if es = 0 then Meets
  else if se > 0 then After
  else if se = 0 then Met_by
  else if ss = 0 then (if ee < 0 then Starts else Started_by)
  else if ee = 0 then (if ss > 0 then Finishes else Finished_by)
  else if ss < 0 then (if ee < 0 then Overlaps else Contains)
  else if ee > 0 then Overlapped_by
  else During

let relate_ints (as_, ae) (bs, be) =
  classify ~ss:(compare as_ bs) ~se:(compare as_ be) ~es:(compare ae bs)
    ~ee:(compare ae be)

let relate_checked a b =
  if Interval.is_instant a || Interval.is_instant b then
    Error "Allen.relate: instant (zero-duration) interval"
  else begin
    let s i = Abstime.to_seconds (Interval.start i) in
    let e i = Abstime.to_seconds (Interval.stop i) in
    Ok (relate_ints (s a, e a) (s b, e b))
  end

let relate a b =
  match relate_checked a b with
  | Ok r -> r
  | Error m -> invalid_arg m

let inverse = function
  | Before -> After
  | Meets -> Met_by
  | Overlaps -> Overlapped_by
  | Starts -> Started_by
  | During -> Contains
  | Finishes -> Finished_by
  | Equal -> Equal
  | After -> Before
  | Met_by -> Meets
  | Overlapped_by -> Overlaps
  | Started_by -> Starts
  | Contains -> During
  | Finished_by -> Finishes

let to_string = function
  | Before -> "before"
  | Meets -> "meets"
  | Overlaps -> "overlaps"
  | Starts -> "starts"
  | During -> "during"
  | Finishes -> "finishes"
  | Equal -> "equal"
  | After -> "after"
  | Met_by -> "met-by"
  | Overlapped_by -> "overlapped-by"
  | Started_by -> "started-by"
  | Contains -> "contains"
  | Finished_by -> "finished-by"

let equal_relation (a : relation) b = a = b
