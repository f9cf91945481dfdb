let last = ref None
let publish ?(retain = true) ?src topic =
  if retain then last := Some (Option.value src ~default:topic)
let retained topic = match !last with Some t when t = topic -> Some t | _ -> None
